package scenario

import (
	"fmt"
	"strings"

	"intertubes/internal/report"
)

// render.go turns a Result into the text delta report intertubes whatif
// prints and the server's text variant serves — same rendering path
// as every paper figure (internal/report).

// Render renders the full delta report for an evaluated scenario.
func Render(r *Result) string {
	var b strings.Builder

	name := r.Scenario.Name
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(&b, "what-if scenario %s  [%s]\n", name, r.Hash)
	fmt.Fprintf(&b, "  conduits cut:    %d (%d tenancies severed)\n", r.ConduitsCut, r.TenanciesCut)
	if len(r.ISPsRemoved) > 0 {
		fmt.Fprintf(&b, "  providers removed: %s (%d links)\n",
			strings.Join(r.ISPsRemoved, ", "), r.LinksRemoved)
	}
	if r.ConduitsAdded > 0 {
		fmt.Fprintf(&b, "  conduits added:  %d\n", r.ConduitsAdded)
	}
	sb, sa := r.Stats.Before, r.Stats.After
	fmt.Fprintf(&b, "  map: %d -> %d lit conduits, %d -> %d links, mean disconnection %.4f\n\n",
		sb.Conduits, sa.Conduits, sb.Links, sa.Links, r.MeanDisconnectionAfter())

	// Sharing distribution (Figure 6 before/after). Only rows that
	// exist either side.
	t := report.Table{
		Title:   "Sharing distribution: conduits shared by >= k ISPs",
		Headers: []string{"k", "before", "after", "delta"},
	}
	for _, s := range r.Sharing {
		if s.Before == 0 && s.After == 0 {
			continue
		}
		t.AddRow(s.K, s.Before, s.After, s.After-s.Before)
	}
	b.WriteString(t.String())
	b.WriteByte('\n')

	t2 := report.Table{
		Title:   "Risk ranking shifts (ascending mean sharing after)",
		Headers: []string{"ISP", "mean before", "mean after", "rank before", "rank after"},
	}
	for _, r := range r.Ranking {
		t2.AddRow(r.ISP, r.MeanBefore, r.MeanAfter, r.RankBefore, r.RankAfter)
	}
	b.WriteString(t2.String())
	b.WriteByte('\n')

	t3 := report.Table{
		Title:   "Per-provider disconnection (fraction of node pairs)",
		Headers: []string{"ISP", "cuts hit", "before", "after", "largest comp"},
	}
	for _, d := range r.Disconnection {
		t3.AddRow(d.ISP, d.CutsHit, fmt.Sprintf("%.4f", d.Before),
			fmt.Sprintf("%.4f", d.After), fmt.Sprintf("%.2f", d.LargestComponent))
	}
	b.WriteString(t3.String())
	b.WriteByte('\n')

	t4 := report.Table{
		Title:   "Minimum cuts to partition each backbone",
		Headers: []string{"ISP", "before", "after"},
	}
	for _, p := range r.Partition {
		t4.AddRow(p.ISP, p.Before, p.After)
	}
	b.WriteString(t4.String())

	if lt := r.LostTraffic; lt != nil {
		fmt.Fprintf(&b, "\nlost traffic (gravity demand, %d pairs):\n", lt.Demands)
		fmt.Fprintf(&b, "  offered:   %.1f Gbps\n", lt.OfferedGbps)
		fmt.Fprintf(&b, "  served:    %.1f -> %.1f Gbps\n", lt.ServedBeforeGbps, lt.ServedAfterGbps)
		fmt.Fprintf(&b, "  stranded:  %.1f Gbps\n", lt.LostGbps)
	}

	if r.Latency != nil {
		lb, la := r.Latency.Before, r.Latency.After
		fmt.Fprintf(&b, "\nlatency impact (%d max pairs):\n", r.Latency.MaxPairs)
		fmt.Fprintf(&b, "  pairs with a lit path:  %d -> %d\n", lb.Pairs, la.Pairs)
		fmt.Fprintf(&b, "  best==ROW fraction:     %.2f -> %.2f\n", lb.BestEqualsROW, la.BestEqualsROW)
		fmt.Fprintf(&b, "  LOS gap p50 / p75 (ms): %.3f / %.3f -> %.3f / %.3f\n",
			lb.LosGapP50, lb.LosGapP75, la.LosGapP50, la.LosGapP75)
	}
	if r.Traffic != nil {
		tb, ta := r.Traffic.Before, r.Traffic.After
		fmt.Fprintf(&b, "\ntraffic overlay (%d probes):\n", r.Traffic.Probes)
		fmt.Fprintf(&b, "  lit conduits:           %d -> %d\n", tb.Conduits, ta.Conduits)
		fmt.Fprintf(&b, "  mean sharing published: %.2f -> %.2f\n", tb.MeanPublished, ta.MeanPublished)
		fmt.Fprintf(&b, "  mean sharing overlaid:  %.2f -> %.2f\n", tb.MeanOverlaid, ta.MeanOverlaid)
	}
	return b.String()
}
