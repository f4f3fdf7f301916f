package main

import (
	"crypto/sha256"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"intertubes"
)

// render.go is the intertubes -all path: NewStudy at the CLI defaults
// (200k probes) for the workload seed, every lazy accessor, then
// RenderAll. Each render builds a fresh study, as each CLI invocation
// does; repeat renders of one seed must be byte-identical.

// accessors are the Study's lazy analyses in the order RenderAll first
// reaches them, each named for the layer it exercises.
var accessors = []struct {
	layer string
	call  func(*intertubes.Study)
}{
	{"geo.colocation_s", func(s *intertubes.Study) { s.Colocation() }},
	{"traceroute.campaign_s", func(s *intertubes.Study) { s.Campaign() }},
	{"mitigate.robustness_s", func(s *intertubes.Study) { s.Robustness() }},
	{"mitigate.additions_s", func(s *intertubes.Study) { s.Additions() }},
	{"mitigate.latency_s", func(s *intertubes.Study) { s.Latency() }},
}

// renderRecord is one timed render.
type renderRecord struct {
	wall, cpu, build time.Duration
	layers           map[string]float64 // traced only: seconds per accessor
	campaignBusy     float64
	digest           [sha256.Size]byte
}

func renderOnce(seed int64, tr *tracer, op int64) renderRecord {
	var r renderRecord
	runtime.GC()
	debug.FreeOSMemory()
	cpu0 := cpuTime()
	t0 := time.Now()
	var st *intertubes.Study
	r.build = tr.time(op, "mapbuilder.NewStudy", "client.render", func() {
		st = intertubes.NewStudy(intertubes.Options{Seed: seed})
	})
	if tr != nil {
		r.layers = make(map[string]float64)
	}
	for _, a := range accessors {
		c0 := cpuTime()
		d := tr.time(op, a.layer, "client.render", func() { a.call(st) })
		if tr != nil {
			r.layers[a.layer] = d.Seconds()
			if a.layer == "traceroute.campaign_s" {
				r.campaignBusy = ratio(float64(cpuTime()-c0), float64(d)*float64(runtime.GOMAXPROCS(0)))
			}
		}
	}
	var text string
	d := tr.time(op, "report.RenderAll", "client.render", func() { text = st.RenderAll() })
	r.wall = time.Since(t0)
	r.cpu = cpuTime() - cpu0
	tr.add(op, "client.render", "", t0, r.wall)
	if tr != nil {
		r.layers["report.render_s"] = d.Seconds()
	}
	r.digest = sha256.Sum256([]byte(text))
	return r
}

func runStudyRender(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		out.spans = tr
	}
	var op int64
	runPhase := func(d time.Duration, tr *tracer) ([]renderRecord, windowDelta, slices) {
		var done atomic.Int64
		w := openWindow()
		sl := startSlicer(done.Load)
		var recs []renderRecord
		for len(recs) == 0 || time.Since(w.start) < d {
			op++
			recs = append(recs, renderOnce(cfg.seed, tr, op))
			done.Add(1)
		}
		return recs, w.close(), sl.finish()
	}
	var untraced, traced []renderRecord
	var ud, td windowDelta
	var rss slices
	if cfg.traced {
		untraced, ud, rss = runPhase(cfg.seconds/2, nil)
		traced, td, _ = runPhase(cfg.seconds-cfg.seconds/2, tr)
	} else {
		untraced, ud, rss = runPhase(cfg.seconds, nil)
	}

	if err := out.markPeakRSS(); err != nil {
		return nil, err
	}
	var walls, cpus, builds, rates []float64
	for _, r := range untraced {
		walls = append(walls, ms(r.wall))
		cpus = append(cpus, ms(r.cpu))
		builds = append(builds, r.build.Seconds())
		rates = append(rates, 1/r.wall.Seconds())
	}
	// Set-up here is the map build every analysis waits on, the NewStudy
	// part of each render: each render builds it once, so a run sets up
	// as many times as it renders and reports the median.
	out.e2e["setup_s"] = median(builds)
	out.e2e["op_p50_ms"] = median(walls)
	out.e2e["work_per_s"] = median(rates)
	out.e2e["cpu_ms_per_work"] = median(cpus)
	out.e2e["rss_mb"] = median(rss.rss)
	out.info["op_tail_ms"] = maxOf(walls)
	out.record["samples"] = len(untraced)
	out.record["tail"] = map[string]any{"percentile": 100, "samples": len(untraced),
		"note": "too few renders for a percentile with ten samples beyond it: the slowest render"}
	out.record["windowSeconds"] = ud.wall.Seconds()
	out.record["stealFrac"] = ud.stealFrac

	all := append(append([]renderRecord(nil), untraced...), traced...)
	out.attempted = len(all)
	for i, r := range all {
		if r.digest != all[0].digest {
			out.fail("render %d differs from render 1 of the same seed", i+1)
		}
	}
	if cfg.traced {
		L := out.layers
		var op, sum float64
		for _, r := range traced {
			op += r.wall.Seconds()
			sum += r.build.Seconds()
			for _, v := range r.layers {
				sum += v
			}
		}
		n := float64(len(traced))
		L["mapbuilder.build_s"] = 0
		for _, r := range traced {
			L["mapbuilder.build_s"] += r.build.Seconds() / n
			for k, v := range r.layers {
				L[k] += v / n
			}
			L["traceroute.busy_ratio"] += r.campaignBusy / n
		}
		L["trace.op_ms"] = op / n * 1000
		L["trace.unattributed_ms"] = (op - sum) / n * 1000
		var tw []float64
		for _, r := range traced {
			tw = append(tw, ms(r.wall))
		}
		L["trace.overhead_ms"] = median(tw) - median(walls)
		L["runtime.alloc_kb_per_op"] = ratio(td.allocKB, n)
		L["runtime.gc_cpu_frac"] = td.gcCPUFrac
		L["runtime.steal_frac"] = td.stealFrac
		out.record["tracedRenders"] = len(traced)
		finishLayers(out)
	}
	return out, nil
}
