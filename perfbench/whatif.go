package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"intertubes/internal/obs"
	"intertubes/internal/scenario"
)

// whatif.go drives the two interactive workloads against POST
// /api/scenario and the dashboard reads. Clients are closed-loop, one
// per CPU, each on its own keep-alive connection.

const (
	latencyPer   = 200  // rows per /api/latency page
	hotSetSize   = 64   // fits scenario.DefaultCacheCapacity (128)
	distinctWarm = 2    // warm-up scenarios per client
	directSample = 16   // responses re-evaluated on a separate engine
	tailQ        = 0.99 // reported tail percentile, given 1000 samples
)

// sample is one timed request.
type sample struct {
	dur    time.Duration
	status int
	kind   uint8
	index  int
	size   int
	crc    uint32
	err    error
	layers *reqLayers // traced phase only
}

// reqLayers is one traced request split along its layers: the handler
// span from the ServeHTTP wrapper, and the engine spans and attributes
// of the program's recorded trace.
type reqLayers struct {
	handler  time.Duration
	evaluate time.Duration
	stages   [len(stageNames)]time.Duration
	attrs    map[string]int64 // "stage.attr" sums
	evals    int
	missing  string // which span could not be joined
}

var stageNames = [...]string{"apply", "matrix", "disconnection", "partition", "capacity"}

// phase is one measured closed-loop window.
type phase struct {
	samples []sample
	delta   windowDelta
	slices  slices
}

// closedLoop runs every client until the window closes; step performs
// one request and reports whether the client should continue.
func closedLoop(clients []*client, d time.Duration, step func(ci int, c *client) (sample, bool)) phase {
	var completed atomic.Int64
	w := openWindow()
	sl := startSlicer(completed.Load)
	deadline := w.start.Add(d)
	per := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s, more := step(i, c)
				if !more {
					return
				}
				per[i] = append(per[i], s)
				completed.Add(1)
			}
		}(i, c)
	}
	wg.Wait()
	p := phase{slices: sl.finish(), delta: w.close()}
	for _, ss := range per {
		p.samples = append(p.samples, ss...)
	}
	return p
}

// timed wraps one request with its client span and, when traced, the
// joined handler span and recorded program trace.
func timed(c *client, st *stack, tr *tracer, op int64, method, path string, body []byte, hdr map[string]string) (sample, response) {
	if tr != nil {
		h := map[string]string{opHeader: strconv.FormatInt(op, 10)}
		for k, v := range hdr {
			h[k] = v
		}
		hdr = h
	}
	t0 := time.Now()
	resp, err := c.do(method, path, body, hdr)
	s := sample{dur: time.Since(t0), status: resp.status, size: len(resp.body), err: err}
	if err == nil {
		s.crc = crc32.ChecksumIEEE(resp.body)
	}
	if tr != nil {
		tr.add(op, "client.op", "", t0, s.dur)
		s.layers = joinLayers(st, tr, op, resp)
	}
	return s, resp
}

// joinLayers fetches the handler span and, for scenario responses, the
// flight-recorder trace named by X-Trace-Id.
func joinLayers(st *stack, tr *tracer, op int64, resp response) *reqLayers {
	l := &reqLayers{attrs: make(map[string]int64)}
	var ok bool
	if l.handler, ok = await(func() (time.Duration, bool) { return st.wrap.take(op) }); !ok {
		l.missing = "handler"
		return l
	}
	id := resp.header.Get("X-Trace-Id")
	if id == "" {
		return l
	}
	rec, ok := await(func() (*obs.TraceRecord, bool) { return obs.DefaultTraces.Get(id) })
	if !ok {
		l.missing = "trace"
		return l
	}
	tr.addRecorded(op, "server.ServeHTTP", rec)
	for _, sp := range rec.Spans {
		if sp.Name == "scenario.evaluate" {
			l.evaluate += time.Duration(sp.DurNs)
			l.evals++
			continue
		}
		name, ok := strings.CutPrefix(sp.Name, "scenario.stage.")
		if !ok {
			continue
		}
		for i, s := range stageNames {
			if s != name {
				continue
			}
			l.stages[i] += time.Duration(sp.DurNs)
			for _, a := range sp.Attrs {
				if v, err := strconv.ParseInt(a.Value, 10, 64); err == nil {
					l.attrs[name+"."+a.Key] += v
				}
			}
		}
	}
	return l
}

// await polls get until it reports ok or a second passes. The handler
// wrapper stores its span and the flight recorder seals its trace as
// ServeHTTP returns, which can be a moment after the client has read
// the last byte.
func await[T any](get func() (T, bool)) (T, bool) {
	deadline := time.Now().Add(time.Second)
	for {
		v, ok := get()
		if ok || time.Now().After(deadline) {
			return v, ok
		}
		time.Sleep(20 * time.Microsecond)
	}
}

func numClients() int { return runtime.NumCPU() }

// phases runs the measured window: one untraced phase of the full
// length, or in a traced run an untraced half then a traced half, so
// the tracing overhead is measured within the run.
func phases(cfg runConfig, tr *tracer, run func(d time.Duration, tr *tracer) phase) (untraced, traced phase) {
	if !cfg.traced {
		return run(cfg.seconds, nil), phase{}
	}
	untraced = run(cfg.seconds/2, nil)
	traced = run(cfg.seconds-cfg.seconds/2, tr)
	return untraced, traced
}

// e2eFromPhase fills the request metrics of the untraced phase: the
// p50 of request latency, the median per-second request rate, CPU per
// request and resident set over the one-second slices, and (reported,
// not gated) the p99 with its sample count.
func e2eFromPhase(out *outcome, p phase) {
	durs := make([]float64, 0, len(p.samples))
	for _, s := range p.samples {
		durs = append(durs, ms(s.dur))
	}
	sd := sorted(durs)
	out.e2e["op_p50_ms"] = quantile(sd, 0.5)
	out.e2e["work_per_s"] = median(p.slices.rate)
	out.e2e["cpu_ms_per_work"] = median(p.slices.cpuPer)
	out.e2e["rss_mb"] = median(p.slices.rss)
	q := supportedQuantile(len(sd))
	if q > tailQ {
		q = tailQ
	}
	out.info["op_tail_ms"] = quantile(sd, q)
	out.record["samples"] = len(sd)
	out.record["tail"] = map[string]any{"percentile": q * 100, "samples": len(sd), "beyond": beyond(len(sd), q)}
	out.record["sliceRates"] = p.slices.rate
	out.record["windowSeconds"] = p.delta.wall.Seconds()
	out.record["wholeWindow"] = map[string]float64{
		"workPerS":     float64(len(sd)) / p.delta.wall.Seconds(),
		"cpuMsPerWork": ratio(ms(p.delta.cpu), float64(len(sd))),
	}
	out.record["stealFrac"] = p.delta.stealFrac
}

// directEngine is a second engine over the same study, for comparing
// served results with in-process evaluations.
func directEngine(st *stack) *scenario.Engine {
	return scenario.New(st.study.Result(), st.study.RiskMatrix(), scenario.Options{
		Seed: serverSeed, Probes: serverProbes, LatencyMaxPairs: 3000,
	})
}

// checkDirect evaluates sc on eng and compares the server's encoding
// of the result (indented JSON plus newline) with body.
func checkDirect(eng *scenario.Engine, sc scenario.Scenario, body []byte) error {
	res, err := eng.Evaluate(context.Background(), sc)
	if err != nil {
		return err
	}
	want, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return err
	}
	if !bytes.Equal(append(want, '\n'), body) {
		return fmt.Errorf("response differs from a direct Engine.Evaluate")
	}
	return nil
}

// checkResult decodes a scenario response and checks its hash.
func checkResult(body []byte, hash string) error {
	var r scenario.Result
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	if r.Hash != hash {
		return fmt.Errorf("hash %q, want %q", r.Hash, hash)
	}
	if r.LostTraffic == nil {
		return fmt.Errorf("no lostTraffic section")
	}
	return nil
}

// ---- whatif-distinct ----

func runWhatifDistinct(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		out.spans = tr
	}
	nc := numClients()
	var warm, fresh []encoded
	prepare := func(s *stack) error {
		if fresh != nil {
			return nil
		}
		mi := newMapInfo(s.study.Map(), s.study.RiskMatrix())
		// Enough distinct bodies for 600 requests/s, about three times
		// the rate on a two-CPU host; the window ends early if a much
		// faster host runs out, and the record says so.
		n := 600*int(cfg.seconds/time.Second) + 1000
		all, err := distinctScenarios(newRand(cfg.seed, streamDistinct, 0), mi, nc*distinctWarm+n)
		if err != nil {
			return err
		}
		warm, fresh = all[:nc*distinctWarm], all[nc*distinctWarm:]
		return nil
	}
	warmUp := func(s *stack) error {
		for i, c := range s.clients {
			for j := 0; j < distinctWarm; j++ {
				e := warm[i*distinctWarm+j]
				resp, err := c.do(http.MethodPost, "/api/scenario", e.body, nil)
				if err != nil {
					return err
				}
				if resp.status != http.StatusOK {
					return fmt.Errorf("warm-up scenario: status %d", resp.status)
				}
			}
		}
		return nil
	}
	st, setup, err := setups(cfg.tmp, nc, tr, prepare, warmUp)
	if err != nil {
		return nil, err
	}
	defer st.close()
	out.e2e["setup_s"] = median(setup.total)
	out.record["setupRounds"] = setup.total

	// Responses are spooled to a temporary file and checked after the
	// window, so neither the checks nor the kept bytes (which grow with
	// throughput) land in the measured CPU or resident set.
	sp, err := newSpool(cfg.tmp)
	if err != nil {
		return nil, err
	}
	defer sp.close()
	offsets := make([]int64, len(fresh))
	var next atomic.Int64
	whole := openWindow()
	run := func(d time.Duration, tr *tracer) phase {
		return closedLoop(st.clients, d, func(ci int, c *client) (sample, bool) {
			i := int(next.Add(1) - 1)
			if i >= len(fresh) {
				return sample{}, false
			}
			s, resp := timed(c, st, tr, int64(i+1), http.MethodPost, "/api/scenario", fresh[i].body, nil)
			s.index = i
			if s.err == nil {
				offsets[i], s.err = sp.put(resp.body)
			}
			return s, true
		})
	}
	untraced, traced := phases(cfg, tr, run)
	all := whole.close()
	if err := out.markPeakRSS(); err != nil {
		return nil, err
	}
	if int(next.Load()) >= len(fresh) {
		out.record["exhausted"] = "every pre-encoded scenario was sent before the window closed"
	}
	e2eFromPhase(out, untraced)
	if err := sp.flush(); err != nil {
		return nil, err
	}

	// Checks, outside every timed window.
	eng := directEngine(st)
	samples := append(append([]sample(nil), untraced.samples...), traced.samples...)
	out.attempted = len(samples)
	checkSet := make(map[int]bool)
	for _, k := range sampleIndexes(cfg.seed, len(samples), directSample) {
		checkSet[samples[k].index] = true
	}
	for _, s := range samples {
		var body []byte
		if s.err == nil {
			if body, err = sp.get(offsets[s.index], s.size); err != nil {
				return nil, err
			}
		}
		switch {
		case s.err != nil:
			out.fail("scenario %d: %v", s.index, s.err)
		case s.status != http.StatusOK:
			out.fail("scenario %d: status %d: %.200s", s.index, s.status, body)
		default:
			if err := checkResult(body, fresh[s.index].hash); err != nil {
				out.fail("scenario %d: %v", s.index, err)
			} else if checkSet[s.index] {
				if err := checkDirect(eng, fresh[s.index].sc, body); err != nil {
					out.fail("scenario %d: %v", s.index, err)
				}
			}
		}
	}
	out.record["directChecked"] = len(checkSet)
	if cfg.traced {
		fillRequestLayers(out, untraced, traced, all)
		out.layers["mapbuilder.build_s"] = median(setup.builds)
		out.layers["latency.atlas_build_ms"] = 0
		out.layers["latency.page_ms"] = 0
		out.layers["latency.not_modified_ratio"] = 0
		finishLayers(out)
	}
	return out, nil
}

// fillRequestLayers computes the per-layer request metrics of a traced
// run from its traced phase, and the tracing overhead against the
// untraced phase. The self-time breakdown — transport, server self,
// each engine stage, and the unattributed rest of the evaluation —
// sums to the traced request time exactly.
func fillRequestLayers(out *outcome, untraced, traced phase, all windowDelta) {
	var (
		n                                    = float64(len(traced.samples))
		op, handler, evaluate, respB, unattr float64
		stages                               [len(stageNames)]float64
		evals, shed                          int
		attrs                                = make(map[string]int64)
		missing                              = make(map[string]int)
		durs                                 []float64
	)
	for _, s := range traced.samples {
		durs = append(durs, ms(s.dur))
		op += ms(s.dur)
		respB += float64(s.size)
		if s.status == http.StatusTooManyRequests {
			shed++
		}
		l := s.layers
		if l == nil {
			continue
		}
		if l.missing != "" {
			missing[l.missing]++
		}
		handler += ms(l.handler)
		evaluate += ms(l.evaluate)
		evals += l.evals
		sum := 0.0
		for i, d := range l.stages {
			stages[i] += ms(d)
			sum += ms(d)
		}
		unattr += ms(l.evaluate) - sum
		for k, v := range l.attrs {
			attrs[k] += v
		}
	}
	for _, s := range untraced.samples {
		if s.status == http.StatusTooManyRequests {
			shed++
		}
	}
	var udurs []float64
	for _, s := range untraced.samples {
		udurs = append(udurs, ms(s.dur))
	}
	L := out.layers
	L["trace.op_ms"] = ratio(op, n)
	L["trace.unattributed_ms"] = ratio(unattr, n)
	L["trace.overhead_ms"] = quantile(sorted(durs), 0.5) - quantile(sorted(udurs), 0.5)
	L["server.handler_ms"] = ratio(handler, n)
	L["server.transport_ms"] = ratio(op-handler, n)
	L["server.self_ms"] = ratio(handler-evaluate, n)
	L["server.resp_kb"] = ratio(respB, n) / 1024
	L["server.shed"] = float64(shed) + all.expo["scenario_requests_shed_total"]

	d := traced.delta
	hits := d.expo["scenario_cache_hits_total"]
	lookups := hits + d.expo["scenario_cache_misses_total"] + d.expo["scenario_singleflight_coalesced_total"]
	L["scenario.cache.hit_ratio"] = ratio(hits, lookups)
	L["scenario.cache.evictions"] = d.expo["scenario_cache_evictions_total"]
	perEval := func(name string) float64 {
		st := d.stage(name)
		return ratio(float64(st.TotalNs)/1e6, float64(st.Calls))
	}
	L["scenario.evaluate_ms"] = perEval("scenario.evaluate")
	for _, s := range stageNames {
		L["scenario.stage."+s+"_ms"] = perEval("scenario.stage." + s)
	}
	reuse := func(stage string) float64 {
		r := float64(attrs[stage+".reused"])
		return ratio(r, r+float64(attrs[stage+".touched"]))
	}
	L["scenario.stage.capacity_reuse_ratio"] = reuse("capacity")
	L["scenario.stage.disconnection_reuse_ratio"] = reuse("disconnection")
	L["scenario.stage.partition_reuse_ratio"] = reuse("partition")
	flows := float64(attrs["capacity.touched"])
	L["graph.maxflow_calls_per_eval"] = ratio(flows, float64(evals))
	L["graph.maxflow_us_per_call"] = ratio(stages[4]*1000, flows)
	fast, sw := float64(attrs["partition.mincut_fastpath"]), float64(attrs["partition.mincut_stoerwagner"])
	L["graph.mincut_calls_per_eval"] = ratio(fast+sw, float64(evals))
	L["graph.mincut_fastpath_ratio"] = ratio(fast, fast+sw)
	L["runtime.alloc_kb_per_op"] = ratio(d.allocKB, n)
	L["runtime.gc_cpu_frac"] = d.gcCPUFrac
	L["runtime.steal_frac"] = d.stealFrac

	breakdown := map[string]float64{
		"op":           ratio(op, n),
		"transport":    ratio(op-handler, n),
		"server.self":  ratio(handler-evaluate, n),
		"unattributed": ratio(unattr, n),
	}
	for i, s := range stageNames {
		breakdown["scenario.stage."+s] = ratio(stages[i], n)
	}
	out.record["selfMsPerRequest"] = breakdown
	out.record["tracedSamples"] = len(traced.samples)
	out.record["untracedSamples"] = len(untraced.samples)
	out.record["evaluations"] = evals
	if len(missing) > 0 {
		out.record["unjoinedSpans"] = missing
	}
}

// finishLayers reports every per-layer metric the workload did not
// reach as 0 and lists it as not applicable.
func finishLayers(out *outcome) {
	for _, m := range perLayer {
		if _, ok := out.layers[m.name]; !ok {
			out.layers[m.name] = 0
			out.notApplic = append(out.notApplic, m.name)
		}
	}
}

// spool keeps response bodies in a temporary file for checking after the
// window.
type spool struct {
	mu  sync.Mutex
	f   *os.File
	w   *bufio.Writer
	off int64
	buf []byte
}

func newSpool(dir string) (*spool, error) {
	f, err := os.CreateTemp(dir, "bodies-")
	if err != nil {
		return nil, err
	}
	return &spool{f: f, w: bufio.NewWriterSize(f, 256<<10)}, nil
}

// put appends b and returns its offset.
func (s *spool) put(b []byte) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	off := s.off
	n, err := s.w.Write(b)
	s.off += int64(n)
	return off, err
}

func (s *spool) flush() error { return s.w.Flush() }

// get reads n bytes at off; the slice is valid until the next get.
func (s *spool) get(off int64, n int) ([]byte, error) {
	if cap(s.buf) < n {
		s.buf = make([]byte, n)
	}
	b := s.buf[:n]
	_, err := s.f.ReadAt(b, off)
	return b, err
}

func (s *spool) close() {
	s.f.Close()
	os.Remove(s.f.Name())
}
