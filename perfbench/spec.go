package main

// spec.go is the benchmark's declaration: its workloads, each with the
// reason it exists, and every metric it reports. BENCHMARK.json at the
// repository root repeats these names, units and reasons for the gate;
// spec_test.go keeps the two in agreement.

// workload is one traffic mix. unit names one unit of work (the
// denominator of work_per_s and cpu_ms_per_work) and op the operation
// a user waits for (op_p50_ms, op_tail_ms).
type workload struct {
	name string
	why  string
	op   string
	unit string
	run  func(cfg runConfig) (*outcome, error)
}

var workloads = []workload{
	{
		name: "whatif-distinct",
		why:  "every POST /api/scenario is a fresh scenario, so the cache always misses and engine stages and graph kernels do the work",
		op:   "POST /api/scenario round trip",
		unit: "request",
		run:  runWhatifDistinct,
	},
	{
		name: "whatif-hot",
		why:  "dashboard reads of a 64-scenario set that fits the LRU, so decode, cache, recorder, JSON encode and transport are the whole cost",
		op:   "dashboard request round trip",
		unit: "request",
		run:  runWhatifHot,
	},
	{
		name: "sweep-jobs",
		why:  "grid sweeps from submit to GeoJSON drive the same engine for batch throughput through internal/par, checkpoints and heatmaps",
		op:   "sweep job, submit to artifact",
		unit: "grid cell",
		run:  runSweepJobs,
	},
	{
		name: "study-render",
		why:  "the intertubes -all path: map build, traceroute, geo, mitigate and report run only here",
		op:   "NewStudy, every accessor, RenderAll",
		unit: "render",
		run:  runStudyRender,
	},
}

// metric is one reported number. bound is the share of the parent's
// median an end-to-end metric may worsen by; per-layer metrics have
// none.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is reported by every untraced run, on every workload, and
// gated against the parent commit. Each name is generic over the
// workload's operation and unit of work; the names a reader of each
// workload expects (req_p50_ms, job_p50_s, cells_per_s, render_s, ...)
// are printed beside them in the run's table. Rates, CPU and resident
// set are medians over one-second slices or over operations, so a
// stolen second on a shared host moves one slice, not the figure.
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "work_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_ms_per_work", unit: "ms", better: "lower", bound: 0.25},
	{name: "rss_mb", unit: "MiB", better: "lower", bound: 0.2},
}

// reported are printed in the table and the run record but not gated:
// on a two-CPU shared host their run-to-run spread under CPU steal is
// several times any usable bound (a p99 of request latency moved
// between 14 and 52 ms across five runs of one build).
var reported = []metric{
	{name: "op_tail_ms", unit: "ms", better: "lower"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
}

// perLayer is reported by every traced run, on every workload; a layer
// the workload never reaches reports 0 and is listed as not applicable
// in the run record.
var perLayer = []metric{
	{name: "trace.op_ms", unit: "ms", better: "lower"},
	{name: "trace.unattributed_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_ms", unit: "ms", better: "lower"},
	{name: "server.handler_ms", unit: "ms", better: "lower"},
	{name: "server.transport_ms", unit: "ms", better: "lower"},
	{name: "server.self_ms", unit: "ms", better: "lower"},
	{name: "server.resp_kb", unit: "KiB", better: "lower"},
	{name: "server.shed", unit: "count", better: "lower"},
	{name: "scenario.cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "scenario.cache.evictions", unit: "count", better: "lower"},
	{name: "scenario.evaluate_ms", unit: "ms", better: "lower"},
	{name: "scenario.stage.apply_ms", unit: "ms", better: "lower"},
	{name: "scenario.stage.matrix_ms", unit: "ms", better: "lower"},
	{name: "scenario.stage.disconnection_ms", unit: "ms", better: "lower"},
	{name: "scenario.stage.partition_ms", unit: "ms", better: "lower"},
	{name: "scenario.stage.capacity_ms", unit: "ms", better: "lower"},
	{name: "scenario.stage.capacity_reuse_ratio", unit: "ratio", better: "higher"},
	{name: "scenario.stage.disconnection_reuse_ratio", unit: "ratio", better: "higher"},
	{name: "scenario.stage.partition_reuse_ratio", unit: "ratio", better: "higher"},
	{name: "graph.maxflow_calls_per_eval", unit: "count", better: "lower"},
	{name: "graph.maxflow_us_per_call", unit: "us", better: "lower"},
	{name: "graph.mincut_calls_per_eval", unit: "count", better: "lower"},
	{name: "graph.mincut_fastpath_ratio", unit: "ratio", better: "higher"},
	{name: "par.worker_busy_ratio", unit: "ratio", better: "higher"},
	{name: "par.chunks_per_batch", unit: "count", better: "higher"},
	{name: "jobs.queue_wait_ms", unit: "ms", better: "lower"},
	{name: "jobs.run_s", unit: "s", better: "lower"},
	{name: "jobs.stream_lag_ms", unit: "ms", better: "lower"},
	{name: "jobs.result_ms", unit: "ms", better: "lower"},
	{name: "jobs.result_kb", unit: "KiB", better: "lower"},
	{name: "jobs.checkpoint_kb", unit: "KiB", better: "lower"},
	{name: "latency.page_ms", unit: "ms", better: "lower"},
	{name: "latency.not_modified_ratio", unit: "ratio", better: "higher"},
	{name: "latency.atlas_build_ms", unit: "ms", better: "lower"},
	{name: "mapbuilder.build_s", unit: "s", better: "lower"},
	{name: "geo.colocation_s", unit: "s", better: "lower"},
	{name: "traceroute.campaign_s", unit: "s", better: "lower"},
	{name: "traceroute.busy_ratio", unit: "ratio", better: "higher"},
	{name: "mitigate.latency_s", unit: "s", better: "lower"},
	{name: "mitigate.robustness_s", unit: "s", better: "lower"},
	{name: "mitigate.additions_s", unit: "s", better: "lower"},
	{name: "report.render_s", unit: "s", better: "lower"},
	{name: "runtime.alloc_kb_per_op", unit: "KiB", better: "lower"},
	{name: "runtime.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "runtime.steal_frac", unit: "ratio", better: "lower"},
}

// issueNames maps each workload's generic metrics (end-to-end or
// reported) to the names a reader of that workload expects, with the
// scale from the generic unit. They are printed in the run's table; the
// JSON result keeps the generic names so every workload reports the
// same set.
var issueNames = map[string][]alias{
	"whatif-distinct": reqAliases,
	"whatif-hot":      reqAliases,
	"sweep-jobs": {
		{source: "op_p50_ms", name: "job_p50_s", unit: "s", scale: 1e-3},
		{source: "work_per_s", name: "cells_per_s", unit: "1/s", scale: 1},
		{source: "cpu_ms_per_work", name: "cpu_ms_per_cell", unit: "ms", scale: 1},
	},
	"study-render": {
		{source: "op_p50_ms", name: "render_s", unit: "s", scale: 1e-3},
		{source: "cpu_ms_per_work", name: "render_cpu_s", unit: "s", scale: 1e-3},
	},
}

var reqAliases = []alias{
	{source: "op_p50_ms", name: "req_p50_ms", unit: "ms", scale: 1},
	{source: "op_tail_ms", name: "req_p99_ms", unit: "ms", scale: 1},
	{source: "work_per_s", name: "req_per_s", unit: "1/s", scale: 1},
	{source: "cpu_ms_per_work", name: "cpu_ms_per_req", unit: "ms", scale: 1},
}

type alias struct {
	source, name, unit string
	scale              float64
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
