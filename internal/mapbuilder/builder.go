// Package mapbuilder implements §2 of the paper: the four-step
// construction of the US long-haul fiber map.
//
//	Step 1 — seed the map with the providers whose published fiber
//	         maps carry explicit geocoding.
//	Step 2 — validate those link locations against the public-records
//	         corpus and establish conduit sharing.
//	Step 3 — add providers that publish only POP-level maps by
//	         aligning each logical link along the closest known
//	         rights-of-way.
//	Step 4 — validate the tentative alignments with public records,
//	         choosing among candidate ROWs by documentary evidence.
//
// Because the substrate is synthetic, the builder also retains the
// ground truth, so the fidelity of steps 2-4 (which the paper could
// only argue for qualitatively) is measured and reported.
package mapbuilder

import (
	"context"
	"fmt"
	"sort"

	"intertubes/internal/atlas"
	"intertubes/internal/fiber"
	"intertubes/internal/graph"
	"intertubes/internal/obs"
	"intertubes/internal/par"
	"intertubes/internal/records"
)

// Options configures a build.
type Options struct {
	// Seed drives every random choice in the build. Builds with equal
	// options are bit-identical.
	Seed int64
	// Records tunes the synthetic public-records corpus.
	Records records.Options
	// AlignCandidates is how many candidate ROW paths step 3 considers
	// per logical link (default 3).
	AlignCandidates int
	// ValidateTopK is how many search hits steps 2 and 4 examine per
	// validation query (default 8).
	ValidateTopK int
	// DisableOccupancyDiscount turns off the shared-trench economics
	// (every provider prices corridors as greenfield). Exists for the
	// ablation benchmarks: without the discount the sharing
	// distribution of Figure 6 loses its heavy tail.
	DisableOccupancyDiscount bool
	// Workers bounds the worker pool that searches step 3's candidate
	// paths and answers steps 2 and 4's validation queries (0 means
	// all CPUs). The build is bit-identical for any value.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.AlignCandidates == 0 {
		o.AlignCandidates = 3
	}
	if o.ValidateTopK == 0 {
		o.ValidateTopK = 8
	}
	if o.Records.Seed == 0 {
		o.Records.Seed = o.Seed + 1
	}
	return o
}

// ISPCounts reproduces one row of the paper's Table 1 for the built
// map.
type ISPCounts struct {
	Name     string
	Nodes    int
	Links    int
	Geocoded bool
}

// Report carries build statistics and ground-truth fidelity measures.
type Report struct {
	PerISP []ISPCounts
	// Step 1 totals (geocoded providers only).
	Step1Nodes, Step1Links, Step1Conduits int
	// Step 2: how many step-1 links had documentary evidence.
	Step2Validated, Step2Checked int
	// Step 3/4: logical-link alignment.
	Step4Routes       int // logical links aligned
	Step4Edges        int // conduit placements chosen
	Step4EdgesCorrect int // placements matching ground truth
	Step4Validated    int // placements with documentary evidence
	// Hidden tenancies recorded for the traceroute overlay.
	HiddenTenancies int
}

// AlignmentAccuracy returns the fraction of step-3/4 conduit
// placements that match ground truth.
func (r Report) AlignmentAccuracy() float64 {
	if r.Step4Edges == 0 {
		return 1
	}
	return float64(r.Step4EdgesCorrect) / float64(r.Step4Edges)
}

// Result is a completed build.
type Result struct {
	Map    *fiber.Map
	Atlas  *atlas.Atlas
	Graph  *graph.Graph // corridor graph (edge ids = corridor indices)
	Corpus *records.Corpus
	Index  *records.Index
	// Truth maps provider name to its ground-truth footprint,
	// including unmapped providers.
	Truth  map[string]Footprint
	Report Report
}

// Build runs the four-step pipeline over the default provider
// universe.
func Build(ctx context.Context, opts Options) *Result {
	return BuildWithProfiles(ctx, opts, Profiles())
}

// BuildWithProfiles runs the pipeline over a caller-supplied provider
// universe (used by tests and ablations).
//
// Only the searches run on the worker pool (opts.Workers). Step 3's
// candidate rights-of-way never depend on validation, so they are
// computed first; then every public-records query steps 2 and 4 will
// make is collected, deduplicated and answered once. Steps 1 to 4
// then replay serially from those tables in provider order, so the
// result is bit-identical at any worker count. Each phase is a child
// span of ctx's span; the build does not observe cancellation.
func BuildWithProfiles(ctx context.Context, opts Options, profiles []Profile) *Result {
	opts = opts.withDefaults()
	ctx = context.WithoutCancel(ctx) // spans and pprof labels only: a build always completes

	_, sp := obs.Trace(ctx, "mapbuilder.footprints")
	a := atlas.Load()
	g := a.Graph()

	res := &Result{
		Map:   fiber.NewMap(),
		Atlas: a,
		Graph: g,
		Truth: make(map[string]Footprint, len(profiles)),
	}

	// Ground truth for every provider, mapped or not. Providers build
	// in order of decreasing footprint size — the large incumbents dug
	// the original trenches, and everyone after them gets the
	// occupancy discount for joining an existing conduit.
	order := make([]int, len(profiles))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		return profiles[order[x]].POPTarget > profiles[order[y]].POPTarget
	})
	occupancy := make([]int, g.NumEdges())
	for _, pi := range order {
		p := profiles[pi]
		occ := occupancy
		if opts.DisableOccupancyDiscount {
			occ = nil
		}
		fp := GenerateFootprint(a, g, p, opts.Seed, occ)
		res.Truth[p.Name] = fp
		for eid := range fp.Edges {
			occupancy[eid]++
		}
	}
	sp.SetItems(int64(len(profiles)))
	sp.End()

	// The public-records corpus describes the true tenancy relation.
	// refs[eid] is corridor eid's records reference.
	_, sp = obs.Trace(ctx, "mapbuilder.corpus")
	refs := make([]records.ConduitRef, len(a.Corridors))
	for eid := range refs {
		c := &a.Corridors[eid]
		refs[eid] = records.NewConduitRef(a.Cities[c.A].Key(), a.Cities[c.B].Key())
	}
	truth := records.GroundTruth{Tenants: make(map[records.ConduitRef][]string)}
	edgeTenants := make(map[int][]string)
	for _, p := range profiles {
		for eid := range res.Truth[p.Name].Edges {
			edgeTenants[eid] = append(edgeTenants[eid], p.Name)
		}
	}
	for eid, tenants := range edgeTenants {
		// Parallel corridors between the same city pair share one
		// records reference: merge their tenant sets.
		ref := refs[eid]
		merged := append(truth.Tenants[ref], tenants...)
		sort.Strings(merged)
		merged = dedupSorted(merged)
		truth.Tenants[ref] = merged
	}
	allNames := make([]string, 0, len(profiles))
	for _, p := range profiles {
		allNames = append(allNames, p.Name)
	}
	res.Corpus = records.Generate(truth, allNames, opts.Records)
	res.Index = records.BuildIndex(res.Corpus)
	sp.SetItems(int64(len(res.Corpus.Docs)))
	sp.End()

	cands := alignCandidates(ctx, res, profiles, opts)
	valid := validate(ctx, res, refs, profiles, cands, opts)

	_, sp = obs.Trace(ctx, "mapbuilder.assemble")
	ensure := func(eid int) fiber.ConduitID {
		c := &a.Corridors[eid]
		ca, cb := a.Cities[c.A], a.Cities[c.B]
		na := res.Map.AddNode(ca.Name, ca.State, ca.Loc, ca.Population, c.A)
		nb := res.Map.AddNode(cb.Name, cb.State, cb.Loc, cb.Population, c.B)
		// The conduit is trenched alongside the corridor's primary
		// right-of-way, not on its centerline.
		return res.Map.EnsureConduit(na, nb, eid, c.Geometry.PerpendicularOffset(1.5))
	}

	// ---- Step 1: geocoded provider maps. Edge iteration is sorted
	// so conduit ids (and the whole build) are reproducible.
	for _, p := range profiles {
		if !p.Mapped() || !p.Geocoded {
			continue
		}
		for _, eid := range sortedEdges(res.Truth[p.Name].Edges) {
			res.Map.AddTenant(ensure(eid), p.Name)
		}
	}
	s := res.Map.Stats()
	res.Report.Step1Nodes, res.Report.Step1Links, res.Report.Step1Conduits = s.Nodes, s.Links, s.Conduits

	// ---- Step 2: validate step-1 link locations against records.
	for _, p := range profiles {
		if !p.Mapped() || !p.Geocoded {
			continue
		}
		for _, eid := range sortedEdges(res.Truth[p.Name].Edges) {
			res.Report.Step2Checked++
			if valid(eid, p.Name) {
				res.Report.Step2Validated++
			}
		}
	}

	// ---- Steps 3 and 4: align POP-only providers along ROWs and
	// validate the placements.
	for pi, p := range profiles {
		if !p.Mapped() || p.Geocoded {
			continue
		}
		fp := res.Truth[p.Name]
		chosen := make(map[int]bool)
		for _, route := range cands[pi] {
			if len(route) == 0 {
				continue
			}
			res.Report.Step4Routes++
			best, bestScore := 0, -1.0
			for i, cand := range route {
				validated := 0
				for _, eid := range cand.Edges {
					if valid(eid, p.Name) {
						validated++
					}
				}
				score := float64(validated) / float64(len(cand.Edges))
				// Prefer documentary evidence; break ties toward the
				// shorter path (earlier candidate).
				if score > bestScore+1e-9 {
					best, bestScore = i, score
				}
			}
			for _, eid := range route[best].Edges {
				chosen[eid] = true
			}
		}
		for _, eid := range sortedEdges(chosen) {
			res.Map.AddTenant(ensure(eid), p.Name)
			res.Report.Step4Edges++
			if fp.Edges[eid] {
				res.Report.Step4EdgesCorrect++
			}
			if valid(eid, p.Name) {
				res.Report.Step4Validated++
			}
		}
	}

	// ---- Hidden tenancy: unmapped providers, plus mapped providers'
	// true occupations the published maps missed. These are invisible
	// to the risk matrix but discoverable by the traceroute overlay
	// (paper §4.3).
	for _, p := range profiles {
		fp := res.Truth[p.Name]
		for _, eid := range sortedEdges(fp.Edges) {
			cid, ok := conduitFor(res.Map, a, eid)
			if !ok {
				continue // conduit absent from the published map entirely
			}
			if res.Map.Conduit(cid).HasTenant(p.Name) {
				continue
			}
			if res.Map.AddHiddenTenant(cid, p.Name) {
				res.Report.HiddenTenancies++
			}
		}
	}

	// ---- Per-provider counts (Table 1 / §2.3 reporting).
	for _, p := range profiles {
		if !p.Mapped() {
			continue
		}
		links := res.Map.ConduitsOf(p.Name)
		res.Report.PerISP = append(res.Report.PerISP, ISPCounts{
			Name:     p.Name,
			Nodes:    len(res.Map.NodesOf(p.Name)),
			Links:    len(links),
			Geocoded: p.Geocoded,
		})
	}
	sp.SetItems(int64(len(res.Map.Conduits)))
	sp.End()
	return res
}

// alignCandidates computes, on the pool, step 3's candidate ROW paths
// for every logical link of every POP-only provider: cands[p][r] lists
// those of route r of profiles[p], shortest first.
func alignCandidates(ctx context.Context, res *Result, profiles []Profile, opts Options) [][][]graph.Path {
	ctx, sp := obs.Trace(ctx, "mapbuilder.align")
	defer sp.End()
	type link struct{ p, r int }
	var links []link
	cands := make([][][]graph.Path, len(profiles))
	for p, prof := range profiles {
		if !prof.Mapped() || prof.Geocoded {
			continue
		}
		routes := res.Truth[prof.Name].Routes
		cands[p] = make([][]graph.Path, len(routes))
		for r := range routes {
			links = append(links, link{p, r})
		}
	}
	a := res.Atlas
	plain := func(eid int) float64 {
		c := &a.Corridors[eid]
		return c.LengthKm * rowFactor(c.ROW)
	}
	paths, _ := par.MapWith(ctx, len(links), opts.Workers, graph.NewWorkspace, func(i int, ws *graph.Workspace) []graph.Path {
		route := res.Truth[profiles[links[i].p].Name].Routes[links[i].r]
		return res.Graph.KShortestPaths(ws, route[0], route[1], opts.AlignCandidates, plain)
	}) // the build's ctx is never canceled
	for i, l := range links {
		cands[l.p][l.r] = paths[i]
	}
	sp.SetWorkers(par.Workers(opts.Workers))
	sp.SetItems(int64(len(links)))
	return cands
}

// query is one step-2/4 validation: does a public record place isp in
// the conduit ref? Parallel corridors between one city pair share a
// reference, and so share an answer.
type query struct {
	ref records.ConduitRef
	isp string
}

// validate collects the queries steps 2 and 4 make — every geocoded
// placement and every edge of every step-3 candidate — answers each
// distinct one once, on the pool, and returns the lookup steps 2 and 4
// replay from: whether a public record places isp in corridor eid's
// conduit. refs[eid] is corridor eid's records reference.
func validate(ctx context.Context, res *Result, refs []records.ConduitRef, profiles []Profile, cands [][][]graph.Path, opts Options) func(eid int, isp string) bool {
	ctx, sp := obs.Trace(ctx, "mapbuilder.validate")
	defer sp.End()
	slot := make(map[query]int)
	var asked []query
	ask := func(eid int, isp string) {
		q := query{refs[eid], isp}
		if _, ok := slot[q]; !ok {
			slot[q] = len(asked)
			asked = append(asked, q)
		}
	}
	for p, prof := range profiles {
		switch {
		case prof.Mapped() && prof.Geocoded:
			for _, eid := range sortedEdges(res.Truth[prof.Name].Edges) {
				ask(eid, prof.Name)
			}
		case prof.Mapped():
			for _, route := range cands[p] {
				for _, cand := range route {
					for _, eid := range cand.Edges {
						ask(eid, prof.Name)
					}
				}
			}
		}
	}
	inf := records.NewInference(res.Index)
	answers, _ := par.Map(ctx, len(asked), opts.Workers, func(i int) bool {
		_, ok := inf.Validate(asked[i].ref, asked[i].isp, opts.ValidateTopK)
		return ok
	}) // the build's ctx is never canceled
	sp.SetWorkers(par.Workers(opts.Workers))
	sp.SetItems(int64(len(asked)))
	return func(eid int, isp string) bool {
		i, ok := slot[query{refs[eid], isp}]
		if !ok {
			panic(fmt.Sprintf("mapbuilder: validation of %s for corridor %d was never collected", isp, eid))
		}
		return answers[i]
	}
}

// sortedEdges returns the keys of an edge set in ascending order.
func sortedEdges(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for eid := range set {
		out = append(out, eid)
	}
	sort.Ints(out)
	return out
}

// dedupSorted removes adjacent duplicates from a sorted slice.
func dedupSorted(xs []string) []string {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || xs[i-1] != x {
			out = append(out, x)
		}
	}
	return out
}

// conduitFor finds the published conduit following corridor eid, if
// any.
func conduitFor(m *fiber.Map, a *atlas.Atlas, eid int) (fiber.ConduitID, bool) {
	if eid < 0 || eid >= len(a.Corridors) {
		return 0, false
	}
	c := &a.Corridors[eid]
	na, ok := m.NodeByKey(a.Cities[c.A].Key())
	if !ok {
		return 0, false
	}
	nb, ok := m.NodeByKey(a.Cities[c.B].Key())
	if !ok {
		return 0, false
	}
	for _, cid := range m.ConduitsBetween(na, nb) {
		if m.Conduit(cid).Corridor == eid {
			return cid, true
		}
	}
	return 0, false
}

// String renders a one-line summary.
func (r *Result) String() string {
	s := r.Map.Stats()
	return fmt.Sprintf("map: %d nodes, %d links, %d conduits, %d ISPs",
		s.Nodes, s.Links, s.Conduits, s.ISPs)
}
