package scenario

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/latency"
	"intertubes/internal/mapbuilder"
	"intertubes/internal/mitigate"
	"intertubes/internal/obs"
	"intertubes/internal/resilience"
	"intertubes/internal/risk"
	"intertubes/internal/traceroute"
)

// engine.go evaluates a canonical Scenario against the baseline study
// into a Result of deltas. Evaluation is pure and deterministic: the
// same scenario against the same baseline yields the same Result for
// any worker count, which is what makes the hash a safe cache key and
// Sweep's bit-identical contract hold.
//
// Evaluation runs on a copy-on-write overlay (overlay_eval.go): it
// records the scenario's delta over the shared snapshot and recomputes
// only the stages the delta touches; no stage copies the map. The
// clone-per-scenario evaluator it replaced — deep-copy the map, mutate,
// re-run everything — lives on in the package's tests as the
// executable specification the differential suite and
// FuzzOverlayEvaluate compare against.

var evaluations = obs.GetCounter("scenario_evaluations_total",
	"Scenario evaluations actually executed (cache hits and singleflight followers excluded).")

var evaluationsCanceled = obs.GetCounter("scenario_evaluations_canceled_total",
	"Scenario evaluations aborted by context cancellation or deadline before completing.")

// Options fixes the baseline knobs scenario evaluation inherits from
// the study.
type Options struct {
	// Seed is the study seed; the traffic overlay derives its campaign
	// stream from it exactly as the baseline campaign does.
	Seed int64
	// Probes is the size of Engine.Campaign, the default for
	// IncludeTraffic scenarios (overridable per scenario).
	Probes int
	// LatencyMaxPairs is the pair cap of Engine.LatencyStudy, the
	// default for IncludeLatency scenarios (overridable per scenario).
	LatencyMaxPairs int
	// Workers bounds the worker pool used by the heavy sub-analyses.
	// Results are bit-identical for any value.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Probes == 0 {
		o.Probes = 200000
	}
	if o.LatencyMaxPairs == 0 {
		o.LatencyMaxPairs = 3000
	}
	return o
}

// Engine evaluates scenarios against one immutable baseline snapshot.
// It is safe for concurrent use: the snapshot is read-only and its
// lazy memos are internally synchronized.
type Engine struct {
	opts Options
	snap *snapshot

	hookMu   sync.Mutex
	evalHook func(ctx context.Context)
}

// New builds an engine over a completed map build and its risk
// matrix.
func New(res *mapbuilder.Result, mx *risk.Matrix, opts Options) *Engine {
	return &Engine{opts: opts.withDefaults(), snap: &snapshot{res: res, mx: mx}}
}

// Matrix returns the baseline's risk matrix.
func (e *Engine) Matrix() *risk.Matrix { return e.snap.mx }

// SetEvalHook installs fn to run at the start of every evaluation
// (after the executed-evaluations counter increments), with the
// evaluation's context. It exists for fault-injection tests — blocking
// an evaluation, observing its cancellation, or panicking mid-stage —
// and must not be used to mutate engine state. nil removes the hook.
func (e *Engine) SetEvalHook(fn func(ctx context.Context)) {
	e.hookMu.Lock()
	e.evalHook = fn
	e.hookMu.Unlock()
}

func (e *Engine) runEvalHook(ctx context.Context) {
	e.hookMu.Lock()
	fn := e.evalHook
	e.hookMu.Unlock()
	if fn != nil {
		fn(ctx)
	}
}

// runCampaign runs a campaign of probes probes on the study's stream,
// attributing its traces onto pub: the baseline map, or a scenario's
// perturbed view of it.
func (e *Engine) runCampaign(ctx context.Context, pub fiber.View, probes int) (*traceroute.Campaign, error) {
	return traceroute.Run(ctx, e.snap.res, pub, traceroute.Options{
		N:       probes,
		Seed:    e.opts.Seed + 2,
		Workers: e.opts.Workers,
	})
}

// runLatencyStudy runs the §5.3 study over the map at's latency atlas
// was built on, capped at maxPairs pairs.
func (e *Engine) runLatencyStudy(ctx context.Context, at *latency.Atlas, maxPairs int) ([]mitigate.PairLatency, error) {
	return mitigate.LatencyStudy(ctx, at, e.snap.res.Atlas, mitigate.LatencyOptions{
		MaxPairs: maxPairs,
		Workers:  e.opts.Workers,
	})
}

func summarizeTraffic(camp *traceroute.Campaign) TrafficSummary {
	pub, over := camp.SharingWithTraffic()
	return TrafficSummary{
		Conduits:      len(pub),
		MeanPublished: mean(pub),
		MeanOverlaid:  mean(over),
	}
}

func mean(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}

// ---- Result types ----

// StatsDelta carries Figure 1's headline numbers before and after.
type StatsDelta struct {
	Before fiber.Stats `json:"before"`
	After  fiber.Stats `json:"after"`
}

// SharingShift is one k of Figure 6's distribution, before and after.
type SharingShift struct {
	K      int `json:"k"`
	Before int `json:"before"`
	After  int `json:"after"`
}

// RankShift is one provider's Figure 7 movement. A removed provider
// does not appear; a provider whose conduits all went dark keeps a
// row with MeanAfter 0.
type RankShift struct {
	ISP        string  `json:"isp"`
	MeanBefore float64 `json:"meanBefore"`
	MeanAfter  float64 `json:"meanAfter"`
	RankBefore int     `json:"rankBefore"`
	RankAfter  int     `json:"rankAfter"`
}

// Disconnection is one provider's connectivity damage: the fraction
// of its baseline-footprint node pairs disconnected, before vs after.
type Disconnection struct {
	ISP string `json:"isp"`
	// CutsHit is how many cut conduits the provider occupied in the
	// baseline map.
	CutsHit int     `json:"cutsHit"`
	Before  float64 `json:"before"`
	After   float64 `json:"after"`
	// LargestComponent is the fraction of the provider's nodes left
	// in its largest surviving component.
	LargestComponent float64 `json:"largestComponent"`
}

// PartitionShift is one provider's minimum-cuts-to-partition, before
// vs after.
type PartitionShift struct {
	ISP    string `json:"isp"`
	Before int    `json:"before"`
	After  int    `json:"after"`
}

// LatencyDelta compares the §5.3 latency summaries.
type LatencyDelta struct {
	MaxPairs int                     `json:"maxPairs"`
	Before   mitigate.LatencySummary `json:"before"`
	After    mitigate.LatencySummary `json:"after"`
}

// TrafficSummary condenses a traceroute overlay: how many published
// conduits exist and the mean sharing degree with and without the
// traffic-inferred tenants.
type TrafficSummary struct {
	Conduits      int     `json:"conduits"`
	MeanPublished float64 `json:"meanPublished"`
	MeanOverlaid  float64 `json:"meanOverlaid"`
}

// TrafficDelta compares traffic overlays at one campaign size.
type TrafficDelta struct {
	Probes int            `json:"probes"`
	Before TrafficSummary `json:"before"`
	After  TrafficSummary `json:"after"`
}

// Result is the evaluated scenario: the canonical spec, its hash, the
// resolved perturbation, and every delta against the baseline.
type Result struct {
	Hash     string   `json:"hash"`
	Scenario Scenario `json:"scenario"`

	// Cut is the resolved cut set (union of all cut clauses), sorted.
	Cut          []fiber.ConduitID `json:"cut,omitempty"`
	ConduitsCut  int               `json:"conduitsCut"`
	TenanciesCut int               `json:"tenanciesCut"`
	// ISPsRemoved / LinksRemoved account the provider-removal clause;
	// ConduitsAdded the additions actually materialized.
	ISPsRemoved   []string `json:"ispsRemoved,omitempty"`
	LinksRemoved  int      `json:"linksRemoved"`
	ConduitsAdded int      `json:"conduitsAdded"`

	Stats         StatsDelta       `json:"stats"`
	Sharing       []SharingShift   `json:"sharing"`
	Ranking       []RankShift      `json:"ranking"`
	Disconnection []Disconnection  `json:"disconnection"`
	Partition     []PartitionShift `json:"partition"`
	// LostTraffic is the capacity-layer delta: Gbps of gravity-model
	// demand the perturbation strands (capacity.go). Always present.
	LostTraffic *LostTraffic  `json:"lostTraffic"`
	Latency     *LatencyDelta `json:"latency,omitempty"`
	Traffic     *TrafficDelta `json:"traffic,omitempty"`
}

// MeanDisconnectionAfter averages the after-column of the
// disconnection table — the scalar headline of a cut scenario.
func (r *Result) MeanDisconnectionAfter() float64 {
	if len(r.Disconnection) == 0 {
		return 0
	}
	var sum float64
	for _, d := range r.Disconnection {
		sum += d.After
	}
	return sum / float64(len(r.Disconnection))
}

// ---- Evaluation ----

// Evaluate resolves, canonicalizes, and evaluates the scenario
// against the baseline snapshot. It is deterministic: equal scenarios
// produce equal Results, bit for bit, at any Workers setting.
//
// Cancellation is cooperative: ctx is checked between stages and, via
// the ctx-aware par pool, at every chunk grant inside the heavy scans.
// A canceled evaluation returns ctx.Err() (and counts toward
// scenario_evaluations_canceled_total); it never returns a partial
// Result, so determinism of completed evaluations is unaffected.
func (e *Engine) Evaluate(ctx context.Context, sc Scenario) (_ *Result, err error) {
	sc, err = Resolve(sc)
	if err != nil {
		return nil, err
	}
	evaluations.Inc()
	defer func() {
		if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			evaluationsCanceled.Inc()
		}
	}()
	// Trace, not StartTrace: the evaluation joins an enclosing recorded
	// trace (an HTTP scenario request, a whatif run, a sweep) but never
	// starts one itself, keeping raw Evaluate loops recorder-free.
	ctx, sp := obs.Trace(ctx, "scenario.evaluate")
	defer sp.End()
	e.runEvalHook(ctx)

	hash := ""
	if sp.TraceID() != "" {
		// The hash only feeds attribution (span attrs, pprof labels);
		// computing it is skipped entirely when nothing records.
		hash = sc.Hash()
		sp.SetAttr("scenario_hash", hash)
		sp.SetAttr("baseline", e.Baseline())
	}

	var res *Result
	run := func(ctx context.Context) {
		res, err = e.evaluateOverlay(ctx, sc)
	}
	if hash != "" {
		// pprof labels make CPU profile samples (including par worker
		// goroutines, which adopt the labels at spawn) attributable to
		// the evaluation. Only paid when the evaluation is recorded.
		pprof.Do(ctx, pprof.Labels("stage", "scenario.evaluate", "scenario_hash", hash), run)
	} else {
		run(ctx)
	}
	if err != nil {
		return nil, err
	}
	sp.SetItems(int64(len(res.Cut) + res.LinksRemoved + res.ConduitsAdded))
	return res, nil
}

// keptISPs returns the matrix providers that survive the scenario's
// removal clause, in matrix order.
func (e *Engine) keptISPs(sc Scenario) []string {
	kept := make([]string, 0, len(e.snap.mx.ISPs))
	removed := make(map[string]bool, len(sc.RemoveISPs))
	for _, isp := range sc.RemoveISPs {
		removed[isp] = true
	}
	for _, isp := range e.snap.mx.ISPs {
		if !removed[isp] {
			kept = append(kept, isp)
		}
	}
	return kept
}

// fillSharing writes the Figure 6 distribution shift; after is the
// perturbed matrix's SharingCounts.
func fillSharing(res *Result, base *baseline, after []int) {
	n := len(base.sharing)
	if len(after) > n {
		n = len(after)
	}
	if n > 0 { // an empty table stays nil, which encodes as null
		res.Sharing = make([]SharingShift, 0, n)
	}
	for k := 1; k <= n; k++ {
		s := SharingShift{K: k}
		if k <= len(base.sharing) {
			s.Before = base.sharing[k-1]
		}
		if k <= len(after) {
			s.After = after[k-1]
		}
		res.Sharing = append(res.Sharing, s)
	}
}

// fillRanking writes the Figure 7 movements in after-ranking order;
// after is the perturbed matrix's ranking.
func fillRanking(res *Result, base *baseline, after []risk.MeanRisk) {
	if len(after) > 0 { // an empty table stays nil, which encodes as null
		res.Ranking = make([]RankShift, 0, len(after))
	}
	for pos, r := range after {
		res.Ranking = append(res.Ranking, RankShift{
			ISP:        r.ISP,
			MeanBefore: base.meanOf[r.ISP],
			MeanAfter:  r.Mean,
			RankBefore: base.rankOf[r.ISP],
			RankAfter:  pos + 1,
		})
	}
}

// fillDisconnection writes the per-ISP connectivity damage table from
// an impact list already in CutImpact's order.
func fillDisconnection(res *Result, base *baseline, impacts []resilience.Impact) {
	for _, im := range impacts {
		res.Disconnection = append(res.Disconnection, Disconnection{
			ISP:              im.ISP,
			CutsHit:          im.CutsHit,
			Before:           base.disc[im.ISP].DisconnectedPairs,
			After:            im.DisconnectedPairs,
			LargestComponent: im.LargestComponent,
		})
	}
}

// latencyStage runs the §5.3 latency comparison when the scenario
// asks for it, over the latency atlas of v, the fully perturbed map.
func (e *Engine) latencyStage(ctx context.Context, sc Scenario, v fiber.View, res *Result) error {
	if !sc.IncludeLatency {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ctx, sp := obs.Trace(ctx, "scenario.stage.latency")
	defer sp.End()
	maxPairs := e.opts.LatencyMaxPairs
	if sc.Overrides.LatencyMaxPairs > 0 {
		maxPairs = sc.Overrides.LatencyMaxPairs
	}
	at, err := latency.Build(ctx, e.snap.res.Map, v, latency.Options{Workers: e.opts.Workers})
	if err != nil {
		return err
	}
	afterStudy, err := e.runLatencyStudy(ctx, at, maxPairs)
	if err != nil {
		return err
	}
	before, err := e.baselineLatency(ctx, maxPairs)
	if err != nil {
		return err
	}
	res.Latency = &LatencyDelta{
		MaxPairs: maxPairs,
		Before:   before,
		After:    mitigate.Summarize(afterStudy),
	}
	return nil
}

// trafficStage runs the traffic-overlay comparison when the scenario
// asks for it, attributing the campaign onto pub, the fully perturbed
// map.
func (e *Engine) trafficStage(ctx context.Context, sc Scenario, pub fiber.View, res *Result) error {
	if !sc.IncludeTraffic {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	ctx, sp := obs.Trace(ctx, "scenario.stage.traffic")
	defer sp.End()
	probes := e.opts.Probes
	if sc.Overrides.Probes > 0 {
		probes = sc.Overrides.Probes
	}
	before, err := e.baselineTraffic(ctx, probes)
	if err != nil {
		return err
	}
	after, err := e.runCampaign(ctx, pub, probes)
	if err != nil {
		return err
	}
	res.Traffic = &TrafficDelta{
		Probes: probes,
		Before: before,
		After:  summarizeTraffic(after),
	}
	return nil
}

// resolveCuts materializes the scenario's cut clauses against the
// baseline map into one sorted, de-duplicated conduit set, and counts
// the region candidates: the conduits the Regions clauses' bounds
// prefilter let through to the exact distance test.
func (e *Engine) resolveCuts(sc Scenario) (cuts []fiber.ConduitID, candidates int, err error) {
	m := e.snap.res.Map
	for _, cid := range sc.CutConduits {
		if int(cid) >= len(m.Conduits) {
			return nil, 0, fmt.Errorf("scenario: conduit %d out of range (map has %d)", cid, len(m.Conduits))
		}
		cuts = append(cuts, cid)
	}
	if sc.CutMostShared > 0 {
		rank := e.snap.sharedRank()
		cuts = append(cuts, rank[:min(sc.CutMostShared, len(rank))]...)
	}
	if sc.CutMostBetween > 0 {
		rank := e.snap.betweennessRank()
		cuts = append(cuts, rank[:min(sc.CutMostBetween, len(rank))]...)
	}
	for _, r := range sc.Regions {
		ids, n := e.snap.regionIndex().Conduits(resilience.Region{
			Center:   geo.Point{Lat: r.Lat, Lon: r.Lon},
			RadiusKm: r.RadiusKm,
		})
		cuts = append(cuts, ids...)
		candidates += n
	}
	return dedupeIDs(cuts), candidates, nil
}
