package main

import (
	"flag"
	"fmt"
	"io"

	"intertubes"
)

// riskreportCmd runs the §4 shared-risk analyses: the risk matrix
// metrics (Figures 6-8) and the traceroute-overlay results (Figure 9,
// Tables 2-4). With no selection flags it renders everything in §4
// order. -capacity additionally renders the capacity study
// (gravity-model demand stranded by cutting the most-shared conduits);
// it is never part of the default set because it sweeps a dozen cut
// scenarios.
func riskreportCmd(fs *flag.FlagSet) func(intertubes.Options, io.Writer) error {
	var (
		probes = fs.Int("probes", 200000, "traceroute campaign size")
		fig6   = fs.Bool("fig6", false, "Figure 6: conduits shared by >= k ISPs")
		fig7   = fs.Bool("fig7", false, "Figure 7: per-ISP average sharing")
		fig8   = fs.Bool("fig8", false, "Figure 8: Hamming-distance heat map")
		fig9   = fs.Bool("fig9", false, "Figure 9: sharing CDF with traffic overlay")
		table2 = fs.Bool("table2", false, "Table 2: top west-to-east conduits")
		table3 = fs.Bool("table3", false, "Table 3: top east-to-west conduits")
		table4 = fs.Bool("table4", false, "Table 4: top ISPs by conduits carrying probes")
		capac  = fs.Bool("capacity", false, "capacity study: gravity demand stranded by cutting the most-shared conduits")
	)
	return func(opts intertubes.Options, out io.Writer) error {
		if err := atLeast("probes", *probes, 1); err != nil {
			return err
		}
		opts.Probes = *probes
		study := intertubes.NewStudy(opts)

		any := *fig6 || *fig7 || *fig8 || *fig9 || *table2 || *table3 || *table4 || *capac
		show := func(selected bool, render func() string) {
			if selected || !any {
				fmt.Fprintln(out, render())
			}
		}
		show(*fig6, study.RenderFigure6)
		show(*fig7, study.RenderFigure7)
		show(*fig8, study.RenderFigure8)
		show(*fig9, study.RenderFigure9)
		show(*table2, study.RenderTable2)
		show(*table3, study.RenderTable3)
		show(*table4, study.RenderTable4)
		if *capac {
			fmt.Fprintln(out, study.RenderCapacity())
		}
		return nil
	}
}
