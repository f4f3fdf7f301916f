package main

import (
	"flag"
	"fmt"
	"io"

	"intertubes"
)

// tracegenCmd runs the synthetic traceroute campaign of §4.3 — the
// equivalent of the paper's Edgescope corpus plus the
// layer-3-to-conduit overlay — and prints overlay statistics plus
// sample traces. With -text the samples print in standard traceroute
// format, which traceroute.ParseText reads back.
func tracegenCmd(fs *flag.FlagSet) func(intertubes.Options, io.Writer) error {
	var (
		n       = fs.Int("n", 100000, "number of traceroutes to synthesize")
		samples = fs.Int("samples", 3, "raw traces to print")
		asText  = fs.Bool("text", false, "print samples in parseable traceroute text format")
	)
	return func(opts intertubes.Options, out io.Writer) error {
		if err := atLeast("n", *n, 1); err != nil {
			return err
		}
		if err := atLeast("samples", *samples, 0); err != nil {
			return err
		}
		opts.Probes = *n
		study := intertubes.NewStudy(opts)
		camp := study.Campaign()

		fmt.Fprintf(out, "campaign: %d traceroutes with long-haul transit (of %d requested)\n",
			camp.Total, *n)
		fmt.Fprintf(out, "conduits observed carrying probes: %d\n", len(camp.ConduitProbes))
		fmt.Fprintf(out, "unattributed segments: %d\n", camp.Unattributed)
		fmt.Fprintf(out, "overlay attribution accuracy vs ground truth: %.1f%%\n\n",
			100*camp.AttributionAccuracy())

		atlasCities := study.Result().Atlas.Cities
		for i, tr := range camp.Samples {
			if i >= *samples {
				break
			}
			if *asText {
				fmt.Fprintln(out, camp.FormatText(tr))
				continue
			}
			fmt.Fprintf(out, "traceroute %s -> %s (transit: %s", atlasCities[tr.SrcCity].Key(),
				atlasCities[tr.DstCity].Key(), tr.ISP)
			if tr.PeerISP != "" {
				fmt.Fprintf(out, " then %s", tr.PeerISP)
			}
			if tr.MPLS {
				fmt.Fprintf(out, ", MPLS tunnel")
			}
			fmt.Fprintln(out, ")")
			for h, hop := range tr.Hops {
				name := hop.Name
				if name == "" {
					name = "* (no rDNS)"
				}
				fmt.Fprintf(out, "  %2d  %-40s %6.2f ms\n", h+1, name, hop.RTTms)
			}
			fmt.Fprintln(out)
		}
		return nil
	}
}
