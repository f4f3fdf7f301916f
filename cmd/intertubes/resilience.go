package main

import (
	"flag"
	"fmt"
	"io"

	"intertubes"
)

// resilienceCmd runs the fiber-cut robustness analyses that the paper
// motivates in §4 and defers to future work: conduit criticality,
// targeted-vs-random cut impact, and per-provider partition costs;
// -disaster adds the what-if report of one circular regional failure.
func resilienceCmd(fs *flag.FlagSet) func(intertubes.Options, io.Writer) error {
	var (
		k        = fs.Int("k", 8, "number of conduits to cut in the strategy comparison")
		disaster = fs.String("disaster", "", "evaluate a regional disaster: lat,lon,radiusKm (e.g. 29.95,-90.07,350)")
	)
	return func(opts intertubes.Options, out io.Writer) error {
		if err := atLeast("k", *k, 1); err != nil {
			return err
		}
		var lat, lon, radiusKm float64
		if *disaster != "" {
			if _, err := fmt.Sscanf(*disaster, "%f,%f,%f", &lat, &lon, &radiusKm); err != nil {
				return fmt.Errorf("invalid -disaster %q (want lat,lon,radiusKm): %w", *disaster, err)
			}
		}
		study := intertubes.NewStudy(opts)
		fmt.Fprintln(out, study.RenderResilience(*k))
		if *disaster == "" {
			return nil
		}
		report, err := study.RenderDisaster(lat, lon, radiusKm)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, report)
		return nil
	}
}
