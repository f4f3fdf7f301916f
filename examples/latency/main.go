// Latency reproduces the §5.3 question for a chosen city pair: how
// much faster could this route be if fiber followed the best
// right-of-way, or the line of sight? ("The Internet at the speed of
// light" framing the paper borrows from Singla et al.)
//
// Usage:
//
//	latency [-from "Chicago,IL"] [-to "Denver,CO"]
package main

import (
	"flag"
	"fmt"
	"log"

	"intertubes"
	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/graph"
	"intertubes/internal/mitigate"
)

func main() {
	from := flag.String("from", "Chicago,IL", "origin city (Name,ST)")
	to := flag.String("to", "Denver,CO", "destination city (Name,ST)")
	flag.Parse()

	study := intertubes.NewStudy(intertubes.Options{Seed: 42})
	m := study.Map()

	a, ok := m.NodeByKey(*from)
	if !ok {
		log.Fatalf("no long-haul node at %q", *from)
	}
	b, ok := m.NodeByKey(*to)
	if !ok {
		log.Fatalf("no long-haul node at %q", *to)
	}

	// One pair, computed directly with the §5.3 machinery.
	g := fiber.Graph(m)
	paths := g.KShortestPaths(graph.NewWorkspace(), int(a), int(b), 5, fiber.LitWeight(m))
	if len(paths) == 0 {
		log.Fatalf("no lit fiber path between %s and %s", *from, *to)
	}
	fmt.Printf("%s -> %s\n\n", *from, *to)
	fmt.Printf("existing fiber paths (over lit conduits):\n")
	for i, p := range paths {
		fmt.Printf("  %d. %6.0f km  %5.2f ms  via %d conduits\n",
			i+1, p.Weight, geo.FiberLatencyMs(p.Weight), p.Hops())
	}

	los := m.Node(a).Loc.DistanceKm(m.Node(b).Loc)
	fmt.Printf("\nline of sight: %6.0f km  %5.2f ms\n", los, geo.FiberLatencyMs(los))
	fmt.Printf("stretch of best existing path over LOS: %.2fx\n\n",
		paths[0].Weight/los)

	// The full study's summary for context.
	sum := mitigate.Summarize(study.Latency())
	fmt.Printf("across %d major city pairs: best existing path already follows the best ROW\n", sum.Pairs)
	fmt.Printf("for %.0f%% of pairs; the ROW-vs-LOS gap is %.2f ms at the median and %.2f ms at p75\n",
		100*sum.BestEqualsROW, sum.LosGapP50, sum.LosGapP75)
}
