package jobs

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"intertubes/internal/scenario"
)

func validCheckpoint() *Checkpoint {
	spec := scenario.GridSpec{CellKm: 200, RadiiKm: []float64{50, 100}}
	spec = scenario.GridSpec{CellKm: spec.CellKm, RadiiKm: spec.RadiiKm, CullKm: 100}
	return &Checkpoint{
		V:        2,
		ID:       "sweep-abc-def",
		Geom:     scenario.GridGeom{Hash: spec.Hash(), Spec: spec, Rows: 3, Cols: 4, Total: 10},
		Baseline: strings.Repeat("d", 64),
		State:    StateRunning,
		Cells: []scenario.CellOutcome{
			{Index: 0}, {Index: 7, MeanDisconnection: 0.25},
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	cp := validCheckpoint()
	data, err := EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != cp.ID || got.Geom.Hash != cp.Geom.Hash || got.Geom.Total != cp.Geom.Total ||
		got.State != cp.State || len(got.Cells) != 2 {
		t.Errorf("round trip mangled checkpoint: %+v", got)
	}
	// Encoding is deterministic for identical content.
	data2, err := EncodeCheckpoint(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("checkpoint encoding is not deterministic")
	}
}

func TestCheckpointDecodeRejections(t *testing.T) {
	mutate := func(f func(*Checkpoint)) []byte {
		cp := validCheckpoint()
		f(cp)
		data, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := map[string][]byte{
		"not json":        []byte("{"),
		"wrong version":   mutate(func(c *Checkpoint) { c.V = 3 }),
		"version 1":       mutate(func(c *Checkpoint) { c.V = 1 }),
		"missing id":      mutate(func(c *Checkpoint) { c.ID = "" }),
		"bad spec":        mutate(func(c *Checkpoint) { c.Geom.Spec.CellKm = -1 }),
		"hash mismatch":   mutate(func(c *Checkpoint) { c.Geom.Hash = strings.Repeat("0", 32) }),
		"bad state":       mutate(func(c *Checkpoint) { c.State = "exploded" }),
		"zero lattice":    mutate(func(c *Checkpoint) { c.Geom.Rows = 0 }),
		"over capacity":   mutate(func(c *Checkpoint) { c.Geom.Total = 1000 }),
		"too many cells":  mutate(func(c *Checkpoint) { c.Geom.Total = 1 }),
		"index range":     mutate(func(c *Checkpoint) { c.Cells[1].Index = 10 }),
		"negative index":  mutate(func(c *Checkpoint) { c.Cells[0].Index = -1 }),
		"duplicate index": mutate(func(c *Checkpoint) { c.Cells[1].Index = 0 }),
	}
	for name, data := range cases {
		if _, err := DecodeCheckpoint(data); err == nil {
			t.Errorf("%s: decode accepted an invalid checkpoint", name)
		}
	}
}

// TestRecoverSkipsVersionOneCheckpoint: a version-1 document named its
// baseline by a process counter, which says nothing about the map.
// Recovery never resumes it and leaves it on disk.
func TestRecoverSkipsVersionOneCheckpoint(t *testing.T) {
	dir := t.TempDir()
	eng := newEngine(t, 0)
	plan, _, err := eng.PlanGrid(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	g := plan.Geom()
	v1 := []byte(`{
 "v": 1,
 "id": "sweep-` + plan.Hash[:12] + `-v1",
 "geom": {"hash": "` + g.Hash + `", "spec": {"cellKm": 500, "radiiKm": [80], "cullKm": 80},
  "rows": ` + strconv.Itoa(g.Rows) + `, "cols": ` + strconv.Itoa(g.Cols) + `, "total": ` + strconv.Itoa(g.Total) + `},
 "baselineVersion": 1,
 "state": "pending",
 "cells": []
}`)
	path := filepath.Join(dir, "sweep-"+plan.Hash[:12]+"-v1.json")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCheckpoint(v1); err == nil {
		t.Fatal("decode accepted a version-1 checkpoint")
	}
	if _, err := DecodeCheckpoint(bytes.Replace(v1, []byte(`"v": 1`), []byte(`"v": 2`), 1)); err != nil {
		t.Fatalf("the document is valid but for its version: %v", err)
	}
	s, err := NewStore(eng, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	list := s.List()
	s.Close()
	if len(list) != 0 {
		t.Errorf("recovery listed %d jobs from a version-1 checkpoint: %+v", len(list), list)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, v1) {
		t.Errorf("version-1 checkpoint changed on disk (err %v)", err)
	}
}

// TestReadCheckpointsSkipsOtherBaselinesByName: recovery opens only
// the files named for its own baseline. Garbage under another
// baseline's id suffix is neither loaded nor reported unreadable; the
// same garbage under this engine's suffix is reported.
func TestReadCheckpointsSkipsOtherBaselinesByName(t *testing.T) {
	eng := newEngine(t, 0)
	baseline := eng.Baseline()
	other := strings.Repeat("0", 64)
	if other[:12] == baseline[:12] {
		t.Fatal("forged digest shares the engine's id suffix")
	}
	garbage := []byte("{not a checkpoint")
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, jobID(strings.Repeat("a", 64), other)+".json"), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	cps, skipped, err := readCheckpoints(dir, baseline)
	if err != nil || len(cps) != 0 || len(skipped) != 0 {
		t.Fatalf("another baseline's file: %d loaded, skipped %v, err %v; want none opened", len(cps), skipped, err)
	}
	own := jobID(strings.Repeat("a", 64), baseline) + ".json"
	if err := os.WriteFile(filepath.Join(dir, own), garbage, 0o644); err != nil {
		t.Fatal(err)
	}
	cps, skipped, err = readCheckpoints(dir, baseline)
	if err != nil || len(cps) != 0 || len(skipped) != 1 || skipped[0] != own {
		t.Fatalf("own baseline's garbage: %d loaded, skipped %v, err %v; want %s reported", len(cps), skipped, err, own)
	}
}

// TestRecoverChecksDecodedBaseline: the name is only a filter. A
// well-formed checkpoint filed under this engine's id suffix that
// carries another digest is neither resumed nor listed.
func TestRecoverChecksDecodedBaseline(t *testing.T) {
	dir := t.TempDir()
	eng := newEngine(t, 0)
	plan, baseline, err := eng.PlanGrid(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	cp := &Checkpoint{
		V:        checkpointVersion,
		ID:       jobID(plan.Hash, baseline),
		Geom:     plan.Geom(),
		Baseline: strings.Repeat("0", 64),
		State:    StatePending,
	}
	if err := writeCheckpoint(dir, cp); err != nil {
		t.Fatal(err)
	}
	if _, err := readCheckpoint(dir, cp.ID); err != nil {
		t.Fatalf("the forged checkpoint does not decode: %v", err)
	}
	s, err := NewStore(eng, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	list := s.List()
	_, getErr := s.Get(cp.ID)
	s.Close()
	if len(list) != 0 || getErr != ErrNotFound {
		t.Errorf("forged checkpoint: listed %+v, Get err %v; want neither", list, getErr)
	}
}

func TestCheckpointPathRejectsTraversal(t *testing.T) {
	for _, id := range []string{"", ".", "..", "a/b", `a\b`} {
		if _, err := checkpointPath("/tmp", id); err == nil {
			t.Errorf("checkpointPath accepted id %q", id)
		}
	}
}

// FuzzCheckpointDecode hammers the resume trust boundary: arbitrary
// bytes must either decode into a checkpoint that re-encodes and
// re-decodes cleanly, or be rejected — never panic, never round-trip
// into something invalid. scripts/fuzz.sh auto-discovers this target.
func FuzzCheckpointDecode(f *testing.F) {
	if seed, err := EncodeCheckpoint(validCheckpoint()); err == nil {
		f.Add(seed)
	}
	f.Add([]byte(`{"v":2}`))
	f.Add([]byte(`{"v":2,"id":"x","geom":{"hash":"","spec":{"cellKm":1,"radiiKm":[1]},"rows":1,"cols":1,"total":1},"baseline":"b","state":"pending","cells":[]}`))
	f.Add([]byte("null"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			return
		}
		out, err := EncodeCheckpoint(cp)
		if err != nil {
			t.Fatalf("decoded checkpoint failed to encode: %v", err)
		}
		if _, err := DecodeCheckpoint(out); err != nil {
			t.Fatalf("re-encoded checkpoint failed validation: %v", err)
		}
	})
}
