package jobs

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

// release_test.go pins the memory rule for finished jobs: a done job
// whose terminal checkpoint is on disk keeps only its cell count and
// renders its artifact from the checkpoint, byte-identical to the
// artifact rendered from in-memory cells, before and after a restart.
// A store without a directory, a failed checkpoint write, and a
// canceled job keep their cells.

// cellsHeld reports whether the job still holds its cells in memory,
// and how many.
func cellsHeld(t *testing.T, s *Store, id string) (bool, int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		t.Fatalf("no job %s", id)
	}
	return j.cells != nil, len(j.cells)
}

func heatmapBytes(t *testing.T, s *Store, id string) []byte {
	t.Helper()
	h, err := s.Heatmap(id)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.GeoJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func waitDone(t *testing.T, s *Store, id string) Status {
	t.Helper()
	st, err := s.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("job %s ended %s (%s)", id, st.State, st.Err)
	}
	return st
}

// sameStatus compares everything but the wall-clock timestamps.
func sameStatus(a, b Status) bool {
	a.Created, a.Started, a.Finished = b.Created, b.Started, b.Finished
	return reflect.DeepEqual(a, b)
}

// memoryReference runs smallSpec on a store without a directory, which
// keeps every cell in memory, and returns its status and artifact.
func memoryReference(t *testing.T) (Status, []byte) {
	t.Helper()
	mem, err := NewStore(newEngine(t, 0), Options{Workers: 2, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	st, err := mem.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, mem, st.ID)
	if held, n := cellsHeld(t, mem, st.ID); !held || n != fin.Total {
		t.Fatalf("store without a directory holds %d cells (held %v), want %d", n, held, fin.Total)
	}
	return fin, heatmapBytes(t, mem, st.ID)
}

func TestDoneJobServedFromCheckpoint(t *testing.T) {
	refSt, refJSON := memoryReference(t)

	dir := t.TempDir()
	eng := newEngine(t, 0)
	s, err := NewStore(eng, Options{Dir: dir, Workers: 2, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, s, st.ID)
	if held, _ := cellsHeld(t, s, st.ID); held {
		t.Error("done job still holds its cells after its terminal checkpoint was written")
	}
	if !sameStatus(fin, refSt) {
		t.Errorf("status after release %+v, in-memory store %+v", fin, refSt)
	}
	if got := heatmapBytes(t, s, st.ID); !bytes.Equal(got, refJSON) {
		t.Error("artifact served from the checkpoint differs from the in-memory artifact")
	}
	s.Close()

	// Restart: recovery keeps the done job's count, not its cells.
	s2, err := NewStore(eng, Options{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rst, err := s2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rst.State != StateDone || rst.Completed != rst.Total || rst.Resumed != rst.Total {
		t.Errorf("recovered status %+v", rst)
	}
	if held, _ := cellsHeld(t, s2, st.ID); held {
		t.Error("recovered done job holds its cells in memory")
	}
	if got := heatmapBytes(t, s2, st.ID); !bytes.Equal(got, refJSON) {
		t.Error("artifact after restart differs from the in-memory artifact")
	}

	// A checkpoint that no longer matches the job is an error, not a
	// silently different artifact.
	path := filepath.Join(dir, st.ID+".json")
	if err := os.WriteFile(path, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Heatmap(st.ID); err == nil {
		t.Error("Heatmap rendered a done job from a corrupt checkpoint")
	}
}

func TestDoneJobKeepsCellsWhenCheckpointFails(t *testing.T) {
	_, refJSON := memoryReference(t)

	dir := filepath.Join(t.TempDir(), "jobs")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := NewStore(newEngine(t, 0), Options{Dir: dir, Workers: 2, CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Every checkpoint write now fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	st, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, s, st.ID)
	if held, n := cellsHeld(t, s, st.ID); !held || n != fin.Total {
		t.Fatalf("after failed checkpoint writes the job holds %d cells (held %v), want %d", n, held, fin.Total)
	}
	if got := heatmapBytes(t, s, st.ID); !bytes.Equal(got, refJSON) {
		t.Error("artifact differs from the in-memory reference")
	}
}

func TestCanceledJobKeepsCellsForRetry(t *testing.T) {
	_, refJSON := memoryReference(t)

	const batch = 2
	eng := newEngine(t, 0)
	var evals atomic.Int64
	eng.SetEvalHook(func(ctx context.Context) {
		if _, ok := JobIDFromContext(ctx); ok && evals.Add(1) > batch {
			<-ctx.Done()
		}
	})
	defer eng.SetEvalHook(nil)
	s, err := NewStore(eng, Options{Dir: t.TempDir(), Workers: 1, CheckpointEvery: batch})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st, err := s.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	ch, detach, err := s.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for ev := range ch {
		if len(ev.Cells) > 0 {
			break
		}
	}
	detach()
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	canceled, err := s.Wait(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.State != StateCanceled {
		t.Fatalf("state after cancel = %s (%s)", canceled.State, canceled.Err)
	}
	if held, n := cellsHeld(t, s, st.ID); !held || n != canceled.Completed || n < batch {
		t.Fatalf("canceled job holds %d cells (held %v), status says %d", n, held, canceled.Completed)
	}

	// Retry resumes from the kept cells; once done, they are released.
	eng.SetEvalHook(nil)
	if _, err := s.Submit(smallSpec()); err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, s, st.ID)
	if fin.Completed != fin.Total {
		t.Errorf("retried job completed %d of %d", fin.Completed, fin.Total)
	}
	if held, _ := cellsHeld(t, s, st.ID); held {
		t.Error("retried done job still holds its cells")
	}
	if got := heatmapBytes(t, s, st.ID); !bytes.Equal(got, refJSON) {
		t.Error("retried artifact differs from the in-memory reference")
	}
}
