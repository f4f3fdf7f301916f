// Planner runs the §5.2 / §6.3 scenario: a consortium (the paper's
// proposed "link exchange" model, an IXP analogue for conduits) has
// budget for k new long-haul conduits. Where should they dig, and who
// benefits?
//
// Usage:
//
//	planner [-k 5] [-budget-km 3000]
package main

import (
	"context"
	"flag"
	"fmt"
	"sort"

	"intertubes"
	"intertubes/internal/mitigate"
)

func main() {
	k := flag.Int("k", 5, "maximum number of new conduits")
	budgetKm := flag.Float64("budget-km", 3000, "total new fiber budget in km")
	flag.Parse()

	study := intertubes.NewStudy(intertubes.Options{Seed: 42})
	m := study.Map()

	res, _ := mitigate.AddConduits(context.Background(), m, study.RiskMatrix(), mitigate.AddOptions{K: *k}) // background ctx: cannot fail

	fmt.Printf("link-exchange plan (up to %d conduits, %.0f km budget):\n\n", *k, *budgetKm)
	var spent float64
	chosen := 0
	for i, ad := range res.Additions {
		if spent+ad.LengthKm > *budgetKm {
			fmt.Printf("  %2d. %s - %s (%.0f km) -- SKIPPED, over budget\n", i+1,
				m.Node(ad.A).Key(), m.Node(ad.B).Key(), ad.LengthKm)
			continue
		}
		spent += ad.LengthKm
		chosen++
		fmt.Printf("  %2d. dig %s - %s (%.0f km, expected benefit %.2f)\n", i+1,
			m.Node(ad.A).Key(), m.Node(ad.B).Key(), ad.LengthKm, ad.Benefit)
	}
	fmt.Printf("\ntotal new fiber: %.0f km across %d conduits\n\n", spent, chosen)

	// Who benefits, at the full k.
	type gain struct {
		isp string
		v   float64
	}
	var gains []gain
	for isp, series := range res.Improvement {
		if len(series) > 0 {
			gains = append(gains, gain{isp: isp, v: series[len(series)-1]})
		}
	}
	sort.Slice(gains, func(i, j int) bool {
		if gains[i].v != gains[j].v {
			return gains[i].v > gains[j].v
		}
		return gains[i].isp < gains[j].isp
	})
	fmt.Println("shared-risk improvement by provider (Figure 11's reading):")
	for _, g := range gains {
		fmt.Printf("  %-18s %5.1f%%\n", g.isp, 100*g.v)
	}
	fmt.Println("\nAs in the paper, providers with modest US footprints gain the most;")
	fmt.Println("the large incumbents already have diverse paths.")
}
