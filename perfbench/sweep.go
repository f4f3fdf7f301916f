package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"intertubes/internal/jobs"
	"intertubes/internal/par"
	"intertubes/internal/scenario"
)

// sweep.go drives the batch lane: one client submits a grid sweep,
// follows its SSE stream to the terminal event, fetches the GeoJSON
// artifact, and repeats. Every job has its own seed-drawn radius
// ladder, so no submission is answered by an earlier finished job.

// jobRecord is one sweep job, timed on the client's clock, with the
// store's own lifecycle stamps from GET /api/jobs/{id}.
type jobRecord struct {
	spec      scenario.GridSpec
	id        string
	t0        time.Time     // submit sent
	cpu       time.Duration // process CPU from submit to artifact
	submitted time.Time     // 202 received
	terminal  time.Time     // terminal SSE event received
	done      time.Time     // artifact received
	status    jobs.Status
	artifact  []byte
	err       error
	batches   int
	ckptBytes int64
}

func (j *jobRecord) dur() time.Duration { return j.done.Sub(j.t0) }

func runSweepJobs(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
		out.spans = tr
	}
	// One job takes about 1.5 s on two CPUs; draw ladders for far
	// more than a window can use.
	specs := gridSpecs(cfg.seed, 50*int(cfg.seconds/time.Second)+10)
	warmUp := func(s *stack) error {
		// One evaluation builds the engine's baseline and capacity
		// memos, which every job shares.
		body, err := json.Marshal(scenario.Scenario{Regions: []scenario.Region{{Lat: 39.1, Lon: -94.6, RadiusKm: 100}}})
		if err != nil {
			return err
		}
		resp, err := s.clients[0].do(http.MethodPost, "/api/scenario", body, nil)
		if err != nil {
			return err
		}
		if resp.status != http.StatusOK {
			return fmt.Errorf("warm-up scenario: status %d", resp.status)
		}
		return nil
	}
	st, setup, err := setups(cfg.tmp, 1, tr, func(*stack) error { return nil }, warmUp)
	if err != nil {
		return nil, err
	}
	defer st.close()
	out.e2e["setup_s"] = median(setup.total)
	out.record["setupRounds"] = setup.total

	c := st.clients[0]
	next := 0
	runPhase := func(d time.Duration, tr *tracer) ([]*jobRecord, windowDelta, slices) {
		var cells atomic.Int64
		w := openWindow()
		sl := startSlicer(cells.Load)
		deadline := w.start.Add(d)
		var recs []*jobRecord
		for time.Now().Before(deadline) && next < len(specs) {
			j := runJob(c, st, tr, int64(next+1), specs[next])
			next++
			recs = append(recs, j)
			cells.Add(int64(j.status.Completed))
		}
		return recs, w.close(), sl.finish()
	}
	var untraced, traced []*jobRecord
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
	if next == len(specs) {
		out.record["exhausted"] = "every drawn ladder was submitted before the window closed"
	}

	// Batch throughput and CPU per cell are medians over jobs: each job
	// is one submit-to-artifact pass of the same cell count, and cells
	// land in 64-cell chunks too coarse for one-second slices.
	var durs, rates, cpuPer []float64
	cells := 0
	for _, j := range untraced {
		durs = append(durs, ms(j.dur()))
		n := j.status.Completed
		cells += n
		if j.err == nil && n > 0 {
			rates = append(rates, float64(n)/j.dur().Seconds())
			cpuPer = append(cpuPer, ms(j.cpu)/float64(n))
		}
	}
	out.e2e["op_p50_ms"] = median(durs)
	out.e2e["work_per_s"] = median(rates)
	out.e2e["cpu_ms_per_work"] = median(cpuPer)
	out.e2e["rss_mb"] = median(rss.rss)
	out.info["op_tail_ms"] = maxOf(durs)
	out.record["samples"] = len(durs)
	out.record["tail"] = map[string]any{"percentile": 100, "samples": len(durs),
		"note": "too few jobs for a percentile with ten samples beyond it: the slowest job"}
	out.record["cells"] = cells
	out.record["wholeWindow"] = map[string]float64{
		"workPerS":     float64(cells) / ud.wall.Seconds(),
		"cpuMsPerWork": ratio(ms(ud.cpu), float64(cells)),
	}
	out.record["windowSeconds"] = ud.wall.Seconds()
	out.record["stealFrac"] = ud.stealFrac

	// Checks, outside every timed window.
	all := append(append([]*jobRecord(nil), untraced...), traced...)
	out.attempted = len(all)
	for _, j := range all {
		if err := checkJob(j); err != nil {
			out.fail("job %s: %v", j.id, err)
		}
	}
	if len(all) > 0 {
		k := sampleIndexes(cfg.seed, len(all), 1)[0]
		if err := checkArtifact(st, all[k]); err != nil {
			out.fail("job %s: %v", all[k].id, err)
		}
		out.record["artifactChecked"] = all[k].id
	}
	if cfg.traced {
		fillSweepLayers(out, untraced, traced, td)
		out.layers["mapbuilder.build_s"] = median(setup.builds)
		finishLayers(out)
	}
	return out, nil
}

// runJob submits one sweep and follows it to its artifact.
func runJob(c *client, st *stack, tr *tracer, op int64, spec scenario.GridSpec) *jobRecord {
	j := &jobRecord{spec: spec}
	body, err := json.Marshal(spec)
	if err != nil {
		j.err = err
		return j
	}
	hdr := map[string]string{}
	if tr != nil {
		hdr[opHeader] = fmt.Sprint(op)
	}
	cpu0 := cpuTime()
	j.t0 = time.Now()
	resp, err := c.do(http.MethodPost, "/api/jobs/sweep", body, hdr)
	j.submitted = time.Now()
	if err == nil && resp.status != http.StatusAccepted {
		err = fmt.Errorf("submit: status %d: %.200s", resp.status, resp.body)
	}
	if err == nil {
		err = json.Unmarshal(resp.body, &j.status)
	}
	if err != nil {
		j.err = err
		return j
	}
	j.id = j.status.ID
	if j.batches, err = followStream(c, j.id, hdr); err != nil {
		j.err = err
		return j
	}
	j.terminal = time.Now()
	resp, err = c.do(http.MethodGet, "/api/jobs/"+j.id+"/result?format=geojson", nil, hdr)
	j.done = time.Now()
	j.cpu = cpuTime() - cpu0
	if err == nil && resp.status != http.StatusOK {
		err = fmt.Errorf("result: status %d", resp.status)
	}
	if err != nil {
		j.err = err
		return j
	}
	j.artifact = bytes.Clone(resp.body)
	tr.add(op, "client.job", "", j.t0, j.dur())
	tr.add(op, "client.submit", "client.job", j.t0, j.submitted.Sub(j.t0))
	tr.add(op, "client.stream", "client.job", j.submitted, j.terminal.Sub(j.submitted))
	tr.add(op, "client.result", "client.job", j.terminal, j.done.Sub(j.terminal))

	// Lifecycle stamps and checkpoint size, after the artifact is in.
	resp, err = c.do(http.MethodGet, "/api/jobs/"+j.id, nil, nil)
	if err == nil && resp.status != http.StatusOK {
		err = fmt.Errorf("status: %d", resp.status)
	}
	if err == nil {
		err = json.Unmarshal(resp.body, &j.status)
	}
	if err != nil {
		j.err = err
		return j
	}
	if fi, err := os.Stat(filepath.Join(st.dir, j.id+".json")); err == nil {
		j.ckptBytes = fi.Size()
	}
	if tr != nil {
		tr.add(op, "jobs.queue", "client.job", j.status.Created, j.status.Started.Sub(j.status.Created))
		tr.add(op, "jobs.run", "client.job", j.status.Started, j.status.Finished.Sub(j.status.Started))
	}
	return j
}

// followStream reads the job's SSE stream until a terminal event and
// counts the cell-chunk events, one per checkpoint batch.
func followStream(c *client, id string, hdr map[string]string) (int, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/api/jobs/"+id+"/stream", nil)
	if err != nil {
		return 0, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	batches := 0
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return batches, fmt.Errorf("stream event: %w", err)
		}
		if len(ev.Cells) > 0 {
			batches++
		}
		if ev.State.Terminal() {
			if ev.State != jobs.StateDone {
				return batches, fmt.Errorf("job ended %s: %s", ev.State, ev.Err)
			}
			return batches, nil
		}
	}
	if err := sc.Err(); err != nil {
		return batches, err
	}
	return batches, fmt.Errorf("stream closed before a terminal event")
}

// checkJob checks one job's own account: it finished, every planned
// cell completed in this process, and the artifact is a GeoJSON
// feature collection of that many cells.
func checkJob(j *jobRecord) error {
	if j.err != nil {
		return j.err
	}
	s := j.status
	switch {
	case s.State != jobs.StateDone:
		return fmt.Errorf("state %s", s.State)
	case s.Total == 0 || s.Completed != s.Total:
		return fmt.Errorf("completed %d of %d cells", s.Completed, s.Total)
	case s.Resumed != 0:
		return fmt.Errorf("resumed %d cells from a checkpoint", s.Resumed)
	}
	var doc struct {
		Type      string            `json:"type"`
		Completed int               `json:"completed"`
		Features  []json.RawMessage `json:"features"`
	}
	if err := json.Unmarshal(j.artifact, &doc); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if doc.Type != "FeatureCollection" || doc.Completed != s.Total || len(doc.Features) != s.Total {
		return fmt.Errorf("artifact: %s with %d features, %d completed, want %d", doc.Type, len(doc.Features), doc.Completed, s.Total)
	}
	return nil
}

// checkArtifact recomputes a job's artifact in process on a separate
// engine — PlanGrid, Sweep, ReduceCell, BuildHeatmap — and compares
// bytes.
func checkArtifact(st *stack, j *jobRecord) error {
	if j.err != nil {
		return j.err
	}
	eng := directEngine(st)
	plan, version, err := eng.PlanGrid(j.spec)
	if err != nil {
		return err
	}
	scs := make([]scenario.Scenario, len(plan.Cells))
	for i, c := range plan.Cells {
		scs[i] = c.Scenario()
	}
	outs := scenario.Sweep(context.Background(), eng, scs, 0)
	cells := make([]scenario.CellOutcome, len(outs))
	for i, o := range outs {
		cells[i] = scenario.ReduceCell(plan.Cells[i], o)
	}
	want, err := scenario.BuildHeatmap(plan.Geom(), version, cells).GeoJSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(want, j.artifact) {
		return fmt.Errorf("artifact differs from an in-process Sweep → ReduceCell → BuildHeatmap")
	}
	return nil
}

// fillSweepLayers computes the batch lane's per-layer metrics from the
// traced phase. A job's time splits along its timeline into submit
// (sent → created), queue (created → started), run (started →
// finished), stream lag (finished → terminal event received) and
// result (terminal → artifact received); the run further splits into
// the scenario.sweep batches and the unattributed rest (checkpoints,
// reduction, streaming).
func fillSweepLayers(out *outcome, untraced, traced []*jobRecord, d windowDelta) {
	L := out.layers
	var op, submit, queue, runS, lag, result, resultB, ckptB float64
	var batches, cells int
	n := 0
	for _, j := range traced {
		if j.err != nil {
			continue
		}
		n++
		s := j.status
		op += ms(j.dur())
		submit += ms(s.Created.Sub(j.t0))
		queue += ms(s.Started.Sub(s.Created))
		runS += s.Finished.Sub(s.Started).Seconds()
		lag += ms(j.terminal.Sub(s.Finished))
		result += ms(j.done.Sub(j.terminal))
		resultB += float64(len(j.artifact))
		ckptB += float64(j.ckptBytes)
		batches += j.batches
		cells += s.Completed
	}
	nf := float64(n)
	sweep := d.stage("scenario.sweep")
	sweepMs := float64(sweep.TotalNs) / 1e6
	evalNs := float64(d.stage("scenario.evaluate").TotalNs)
	L["trace.op_ms"] = ratio(op, nf)
	L["trace.unattributed_ms"] = ratio(runS*1000-sweepMs, nf)
	var ud, td []float64
	for _, j := range untraced {
		ud = append(ud, ms(j.dur()))
	}
	for _, j := range traced {
		td = append(td, ms(j.dur()))
	}
	L["trace.overhead_ms"] = median(td) - median(ud)
	L["jobs.queue_wait_ms"] = ratio(queue, nf)
	L["jobs.run_s"] = ratio(runS, nf)
	L["jobs.stream_lag_ms"] = ratio(lag, nf)
	L["jobs.result_ms"] = ratio(result, nf)
	L["jobs.result_kb"] = ratio(resultB, nf) / 1024
	L["jobs.checkpoint_kb"] = ratio(ckptB, nf) / 1024
	L["par.worker_busy_ratio"] = ratio(evalNs/1e9, runS*float64(runtime.GOMAXPROCS(0)))
	L["par.chunks_per_batch"] = ratio(d.expo["par_chunks_executed_total"], float64(batches))
	L["scenario.evaluate_ms"] = ratio(evalNs/1e6, float64(d.stage("scenario.evaluate").Calls))
	for _, s := range stageNames {
		stg := d.stage("scenario.stage." + s)
		L["scenario.stage."+s+"_ms"] = ratio(float64(stg.TotalNs)/1e6, float64(stg.Calls))
	}
	hits := d.expo["scenario_cache_hits_total"]
	L["scenario.cache.hit_ratio"] = ratio(hits, hits+d.expo["scenario_cache_misses_total"]+d.expo["scenario_singleflight_coalesced_total"])
	L["scenario.cache.evictions"] = d.expo["scenario_cache_evictions_total"]
	L["server.shed"] = d.expo["scenario_requests_shed_total"]
	L["runtime.alloc_kb_per_op"] = ratio(d.allocKB, nf)
	L["runtime.gc_cpu_frac"] = d.gcCPUFrac
	L["runtime.steal_frac"] = d.stealFrac

	out.record["selfMsPerJob"] = map[string]float64{
		"op":                    ratio(op, nf),
		"submit":                ratio(submit, nf),
		"jobs.queue":            ratio(queue, nf),
		"jobs.run.sweep":        ratio(sweepMs, nf),
		"jobs.run.unattributed": ratio(runS*1000-sweepMs, nf),
		"jobs.stream_lag":       ratio(lag, nf),
		"jobs.result":           ratio(result, nf),
	}
	out.record["tracedJobs"] = n
	out.record["tracedCells"] = cells
	out.record["batches"] = batches
	out.record["parChunkSize"] = par.ChunkSize
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
