package main

import (
	"flag"
	"fmt"
	"io"

	"intertubes"
)

// mitigateCmd runs the §5 risk-mitigation analyses: the
// robustness-suggestion framework over the most heavily shared
// conduits (Figure 10, Table 5), the k-new-conduits sweep (Figure 11),
// and the propagation-delay study with proposed ROW-following builds
// (Figure 12). With no selection flags it renders everything in §5
// order.
func mitigateCmd(fs *flag.FlagSet) func(intertubes.Options, io.Writer) error {
	var (
		k      = fs.Int("k", 10, "number of new conduits for the Figure 11 sweep")
		fig10  = fs.Bool("fig10", false, "Figure 10: path inflation and shared-risk reduction")
		table5 = fs.Bool("table5", false, "Table 5: suggested peerings")
		fig11  = fs.Bool("fig11", false, "Figure 11: improvement vs conduits added")
		fig12  = fs.Bool("fig12", false, "Figure 12: latency CDFs and proposed ROW builds")
	)
	return func(opts intertubes.Options, out io.Writer) error {
		if err := atLeast("k", *k, 1); err != nil {
			return err
		}
		opts.AddConduits = *k
		study := intertubes.NewStudy(opts)

		any := *fig10 || *table5 || *fig11 || *fig12
		show := func(selected bool, render func() string) {
			if selected || !any {
				fmt.Fprintln(out, render())
			}
		}
		show(*fig10, study.RenderFigure10)
		show(*table5, study.RenderTable5)
		show(*fig11, study.RenderFigure11)
		show(*fig12, study.RenderFigure12)
		return nil
	}
}
