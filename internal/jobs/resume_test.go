package jobs

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"intertubes/internal/mapbuilder"
	"intertubes/internal/risk"
	"intertubes/internal/scenario"
)

// resume_test.go is the tentpole acceptance test: a sweep job killed
// mid-flight (simulated process shutdown), restarted from its on-disk
// checkpoint in a brand-new store at a different worker count, must
// emit a final GeoJSON heatmap byte-identical to an uninterrupted run.

func resumeSpec() scenario.GridSpec {
	return scenario.GridSpec{CellKm: 350, RadiiKm: []float64{60, 140}}
}

func TestCrashResumeByteIdenticalGeoJSON(t *testing.T) {
	dir := t.TempDir()
	const batch = 3

	// Reference: an uninterrupted run, workers=1, no persistence.
	refEng := newEngine(t, 0)
	refStore, err := NewStore(refEng, Options{Workers: 1, CheckpointEvery: batch})
	if err != nil {
		t.Fatal(err)
	}
	refSt, err := refStore.Submit(resumeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if refSt.Total <= 2*batch {
		t.Fatalf("grid too small to interrupt meaningfully: %d cells", refSt.Total)
	}
	if fin, err := refStore.Wait(refSt.ID); err != nil || fin.State != StateDone {
		t.Fatalf("reference run: %+v, %v", fin, err)
	}
	refHeat, err := refStore.Heatmap(refSt.ID)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := refHeat.GeoJSON()
	if err != nil {
		t.Fatal(err)
	}
	refStore.Close()

	// Run A: workers=2, persistent. The eval hook lets exactly the
	// first checkpoint batch through, then parks every later job
	// evaluation until shutdown cancels it — a deterministic
	// mid-flight kill via the existing fault harness.
	engA := newEngine(t, 0)
	var evals atomic.Int64
	engA.SetEvalHook(func(ctx context.Context) {
		if _, ok := JobIDFromContext(ctx); !ok {
			return
		}
		if evals.Add(1) > batch {
			<-ctx.Done()
		}
	})
	storeA, err := NewStore(engA, Options{Dir: dir, Workers: 2, CheckpointEvery: batch})
	if err != nil {
		t.Fatal(err)
	}
	stA, err := storeA.Submit(resumeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if stA.ID != refSt.ID {
		t.Fatalf("job IDs diverge across stores: %s vs %s", stA.ID, refSt.ID)
	}
	ch, detach, err := storeA.Subscribe(stA.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first checkpointed chunk, then simulate the process
	// dying: Close interrupts the running sweep with ErrShutdown.
	for ev := range ch {
		if len(ev.Cells) > 0 {
			break
		}
	}
	storeA.Close()
	detach()
	engA.SetEvalHook(nil)

	cpPath := filepath.Join(dir, stA.ID+".json")
	data, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatalf("no checkpoint after shutdown: %v", err)
	}
	cp, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if cp.State.terminal() {
		t.Fatalf("parked checkpoint is terminal: %s", cp.State)
	}
	if len(cp.Cells) < batch || len(cp.Cells) >= cp.Geom.Total {
		t.Fatalf("checkpoint has %d of %d cells; want a partial >= %d",
			len(cp.Cells), cp.Geom.Total, batch)
	}

	// Run B: a fresh process (new engine, new store, same directory) at
	// a different worker count. Recovery re-queues the parked job; the
	// runner evaluates only the missing cells.
	engB := newEngine(t, 0)
	var evalsB atomic.Int64
	engB.SetEvalHook(func(ctx context.Context) {
		if _, ok := JobIDFromContext(ctx); ok {
			evalsB.Add(1)
		}
	})
	defer engB.SetEvalHook(nil)
	storeB, err := NewStore(engB, Options{Dir: dir, Workers: 5, CheckpointEvery: batch})
	if err != nil {
		t.Fatal(err)
	}
	defer storeB.Close()

	finB, err := storeB.Wait(stA.ID)
	if err != nil {
		t.Fatal(err)
	}
	if finB.State != StateDone {
		t.Fatalf("resumed job ended %s (%s)", finB.State, finB.Err)
	}
	if finB.Resumed != len(cp.Cells) {
		t.Errorf("Resumed = %d, checkpoint had %d cells", finB.Resumed, len(cp.Cells))
	}
	if got, want := evalsB.Load(), int64(finB.Total-finB.Resumed); got != want {
		t.Errorf("resume evaluated %d cells, want exactly the %d missing ones", got, want)
	}

	heatB, err := storeB.Heatmap(stA.ID)
	if err != nil {
		t.Fatal(err)
	}
	jsonB, err := heatB.GeoJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jsonB, refJSON) {
		t.Fatal("resumed GeoJSON differs from the uninterrupted reference run")
	}
	// The raster artifact rides the same contract.
	if heatB.RenderGrid() != refHeat.RenderGrid() {
		t.Fatal("resumed ASCII raster differs from the uninterrupted reference run")
	}

	// The terminal checkpoint on disk is also final and decodable.
	data, err = os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.State != StateDone || len(cp2.Cells) != cp2.Geom.Total {
		t.Errorf("terminal checkpoint: state %s, %d/%d cells",
			cp2.State, len(cp2.Cells), cp2.Geom.Total)
	}
}

// TestRecoverDiscardsStaleBaseline pins the safety rule: a checkpoint
// of another baseline is never resumed nor listed, so its cells cannot
// leak into this engine's artifacts, and its file stays on disk
// untouched for a process built on its own map.
func TestRecoverDiscardsStaleBaseline(t *testing.T) {
	dir := t.TempDir()
	eng := newEngine(t, 0)

	plan, baseline, err := eng.PlanGrid(resumeSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Forge a parked checkpoint of a baseline this engine does not
	// have, with one bogus completed cell.
	other := strings.Repeat("0", 64)
	if other == baseline {
		t.Fatal("forged digest collides with the engine's")
	}
	id := "sweep-" + plan.Hash[:12] + "-" + other[:12]
	cp := &Checkpoint{
		V:        checkpointVersion,
		ID:       id,
		Geom:     plan.Geom(),
		Baseline: other,
		State:    StatePending,
		Cells: []scenario.CellOutcome{{
			Index: 0, Lat: plan.Cells[0].Lat, Lon: plan.Cells[0].Lon,
			RadiusKm: plan.Cells[0].RadiusKm, MeanDisconnection: 0.999,
		}},
	}
	if err := writeCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, id+".json")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewStore(eng, Options{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if list := s.List(); len(list) != 0 {
		t.Errorf("recovery listed another baseline's job: %+v", list)
	}
	if _, err := s.Get(id); err != ErrNotFound {
		t.Errorf("Get(%s) err = %v, want ErrNotFound", id, err)
	}
	// The same spec on this engine is a different job, run from scratch.
	st, err := s.Submit(resumeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == id || st.Baseline != baseline {
		t.Fatalf("submit on this engine: id %s baseline %s, want a job of baseline %s", st.ID, st.Baseline, baseline)
	}
	fin, err := s.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if fin.State != StateDone || fin.Resumed != 0 {
		t.Fatalf("job ended %s (%s) with %d resumed cells", fin.State, fin.Err, fin.Resumed)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Errorf("another baseline's checkpoint changed on disk (err %v)", err)
	}
}

// TestRestartOnAnotherMapRunsAfresh is the cross-map case: a job store
// over a seed-7 map, restarted on the directory a seed-42 store filled,
// names the same spec as a different job, serves the seed-7 artifact
// byte for byte, and leaves the seed-42 checkpoint as it was.
func TestRestartOnAnotherMapRunsAfresh(t *testing.T) {
	dir := t.TempDir()
	run := func(eng *scenario.Engine, dir string) (Status, []byte) {
		t.Helper()
		s, err := NewStore(eng, Options{Dir: dir, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		st, err := s.Submit(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		if st, err = s.Wait(st.ID); err != nil || st.State != StateDone {
			t.Fatalf("sweep: %+v, %v", st, err)
		}
		h, err := s.Heatmap(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		gj, err := h.GeoJSON()
		if err != nil {
			t.Fatal(err)
		}
		return st, gj
	}

	st42, gj42 := run(newEngine(t, 0), dir)
	cp42 := filepath.Join(dir, st42.ID+".json")
	before, err := os.ReadFile(cp42)
	if err != nil {
		t.Fatal(err)
	}

	res7 := mapbuilder.Build(context.Background(), mapbuilder.Options{Seed: 7})
	mx7 := risk.Build(res7.Map, nil)
	eng7 := func() *scenario.Engine { return scenario.New(res7, mx7, scenario.Options{Seed: 7}) }
	st7, gj7 := run(eng7(), dir)
	if st7.ID == st42.ID {
		t.Fatalf("seed 7 and seed 42 share job id %s", st7.ID)
	}
	if st7.Resumed != 0 {
		t.Errorf("seed-7 job resumed %d cells from another map", st7.Resumed)
	}
	_, fresh7 := run(eng7(), t.TempDir())
	if !bytes.Equal(gj7, fresh7) {
		t.Error("seed-7 artifact over the seed-42 directory differs from a fresh seed-7 store's")
	}
	if bytes.Equal(gj7, gj42) {
		t.Error("seed-7 store served seed 42's artifact")
	}
	if after, err := os.ReadFile(cp42); err != nil || !bytes.Equal(after, before) {
		t.Errorf("seed-42 checkpoint changed on disk (err %v)", err)
	}
}

// TestResumeDiscardsMismatchedLattice: a checkpoint of this baseline
// whose lattice disagrees with the plan is outside input gone wrong;
// the job restarts from no cells rather than trusting it.
func TestResumeDiscardsMismatchedLattice(t *testing.T) {
	dir := t.TempDir()
	eng := newEngine(t, 0)
	plan, baseline, err := eng.PlanGrid(resumeSpec())
	if err != nil {
		t.Fatal(err)
	}
	geom := plan.Geom()
	geom.Rows++
	geom.Total++
	id := "sweep-" + plan.Hash[:12] + "-" + baseline[:12]
	cp := &Checkpoint{
		V:        checkpointVersion,
		ID:       id,
		Geom:     geom,
		Baseline: baseline,
		State:    StatePending,
		Cells:    []scenario.CellOutcome{{Index: 0, MeanDisconnection: 0.999}},
	}
	if err := writeCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(eng, Options{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fin, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != StateDone || fin.Total != plan.Total() {
		t.Fatalf("job ended %s (%s) with %d cells, want done with the plan's %d", fin.State, fin.Err, fin.Total, plan.Total())
	}
	h, err := s.Heatmap(id)
	if err != nil {
		t.Fatal(err)
	}
	if h.Rows != plan.Rows {
		t.Errorf("heatmap has %d rows, want the plan's %d", h.Rows, plan.Rows)
	}
	for _, c := range h.Cells {
		if c.MeanDisconnection == 0.999 {
			t.Fatal("a cell of the mismatched lattice survived")
		}
	}
}
