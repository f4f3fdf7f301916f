package traceroute

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// parse.go reads textual traceroute output back into Traces, so the
// overlay can be applied to externally collected data (the paper's
// Edgescope corpus was exactly that: millions of text traceroutes).
// The accepted grammar is the common Unix format:
//
//	traceroute to <dest> ...            (optional header)
//	 1  ae-3.dllstx.level3.net  1.234 ms
//	 2  * * *
//	 3  192.0.2.1  5.678 ms
//
// Hop lines start with an index; '*' hops are kept as unresolved.
// Multiple traceroutes may be concatenated; a new header or an index
// that resets to 1 starts a new trace.

// ParsedHop is one line of a parsed traceroute.
type ParsedHop struct {
	Index int
	Name  string // "" for '*' or bare-IP hops
	RTTms float64
}

// ParsedTrace is one parsed traceroute.
type ParsedTrace struct {
	Dest string // from the header, if present
	Hops []ParsedHop
}

// ParseText reads concatenated traceroute output.
func ParseText(r io.Reader) ([]ParsedTrace, error) {
	sc := bufio.NewScanner(r)
	var out []ParsedTrace
	var cur *ParsedTrace
	lineNo := 0
	flush := func() {
		if cur != nil && len(cur.Hops) > 0 {
			out = append(out, *cur)
		}
		cur = nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			flush()
			continue
		}
		if strings.HasPrefix(line, "traceroute to ") || strings.HasPrefix(line, "traceroute ") {
			flush()
			cur = &ParsedTrace{}
			fields := strings.Fields(line)
			for i, f := range fields {
				if f == "to" && i+1 < len(fields) {
					cur.Dest = strings.TrimSuffix(fields[i+1], ",")
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		idx, err := strconv.Atoi(fields[0])
		if err != nil {
			// Not a hop line and not a header: tolerate prose lines
			// between traces, reject garbage inside one.
			if cur != nil && len(cur.Hops) > 0 {
				return nil, fmt.Errorf("traceroute: line %d: expected hop line, got %q", lineNo, line)
			}
			continue
		}
		if idx == 1 && cur != nil && len(cur.Hops) > 0 {
			flush()
		}
		if cur == nil {
			cur = &ParsedTrace{}
		}
		hop := ParsedHop{Index: idx}
		if len(fields) > 1 && fields[1] != "*" {
			hop.Name = fields[1]
			// Optional "<rtt> ms" pair(s); take the first.
			for i := 2; i+1 < len(fields)+1 && i < len(fields); i++ {
				if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
					hop.RTTms = v
					break
				}
			}
		}
		cur.Hops = append(cur.Hops, hop)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traceroute: %w", err)
	}
	flush()
	return out, nil
}

// FormatText renders a Trace in the textual format ParseText accepts,
// closing the loop between synthesis and parsing.
func (c *Campaign) FormatText(t Trace) string {
	var b strings.Builder
	a := c.res.Atlas
	fmt.Fprintf(&b, "traceroute to %s from %s\n",
		a.Cities[t.DstCity].Key(), a.Cities[t.SrcCity].Key())
	for i, h := range t.Hops {
		if h.Name == "" {
			fmt.Fprintf(&b, "%2d  * * *\n", i+1)
			continue
		}
		fmt.Fprintf(&b, "%2d  %s  %.3f ms\n", i+1, h.Name, h.RTTms)
	}
	return b.String()
}

// OverlayParsed attributes externally parsed traces onto the
// campaign's published map, merging their counts into the campaign
// aggregates. Hops without resolvable names are skipped exactly as in
// the synthetic path. Direction is classified from the first and last
// resolvable hop cities. It returns the number of traces that
// contributed at least one attribution.
func (c *Campaign) OverlayParsed(traces []ParsedTrace) int {
	routes := newOverlayRoutes(c.res, c.pub)
	// The build can fail only by cancellation, and this signature
	// carries no ctx.
	_, _ = buildRouteTables(context.TODO(), c.Opts.Workers, routes.tables())
	sc := newProbeScratch() // serial overlay: one scratch for every query
	t := newTally(c.pub.NumConduits())
	contributed := 0
	for _, pt := range traces {
		sc.decoded = sc.decoded[:0]
		for _, ph := range pt.Hops {
			if city, isp, ok := c.namer.decodeHop(ph.Name); ok {
				sc.decoded = append(sc.decoded, decodedHop{city: city, isp: isp})
			}
		}
		if len(sc.decoded) < 2 {
			continue
		}
		first, last := sc.decoded[0].city, sc.decoded[len(sc.decoded)-1].city
		if first == last {
			continue
		}
		if attribute(sc, routes, t, c.atlasLon(first) < c.atlasLon(last)) > 0 {
			contributed++
		}
	}
	t.fold(c)
	return contributed
}
