package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"intertubes/internal/scenario"
)

// checkpoint.go is the persistence layer: one JSON document per job,
// written atomically (temp file + rename) after every evaluated batch,
// so a killed fibermapd resumes a half-finished sweep instead of
// recomputing it. Checkpoints store the compact reduced CellOutcome
// per completed cell — not full Results — which keeps a thousand-cell
// sweep's checkpoint well under a megabyte while still carrying
// everything the heatmap artifacts need. Determinism makes that safe:
// each cell is a pure function of (baseline digest, cell scenario),
// so re-rendering from checkpointed cells is byte-identical to an
// uninterrupted run.

// checkpointVersion is the on-disk format version; DecodeCheckpoint
// rejects anything else so a future format change cannot be silently
// misread as cells. Version 2 names the baseline by its digest.
const checkpointVersion = 2

// Checkpoint is the serialized job state. Canceled cells are never
// present: a canceled evaluation never ran, so there is nothing to
// persist (see scenario.Outcome.Canceled). Cells whose evaluation
// failed deterministically are present with Err set — they would fail
// identically on re-run, so re-running them is waste.
type Checkpoint struct {
	V        int                    `json:"v"`
	ID       string                 `json:"id"`
	Geom     scenario.GridGeom      `json:"geom"`
	Baseline string                 `json:"baseline"`
	State    State                  `json:"state"`
	Err      string                 `json:"err,omitempty"`
	Cells    []scenario.CellOutcome `json:"cells"`
}

// EncodeCheckpoint serializes a checkpoint in the canonical form
// DecodeCheckpoint accepts.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	if cp.V == 0 {
		cp.V = checkpointVersion
	}
	return json.MarshalIndent(cp, "", " ")
}

// DecodeCheckpoint parses and validates a checkpoint document. It is
// the trust boundary between on-disk bytes and the resume path, so it
// rejects structurally inconsistent documents (bad version, spec/hash
// mismatch, out-of-range or duplicate cell indices) rather than letting
// them corrupt a resumed job; scripts/fuzz.sh exercises it directly.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("jobs: checkpoint parse: %w", err)
	}
	if cp.V != checkpointVersion {
		return nil, fmt.Errorf("jobs: checkpoint version %d, want %d", cp.V, checkpointVersion)
	}
	if cp.ID == "" {
		return nil, fmt.Errorf("jobs: checkpoint missing job id")
	}
	if err := cp.Geom.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("jobs: checkpoint spec: %w", err)
	}
	if got := cp.Geom.Spec.Hash(); got != cp.Geom.Hash {
		return nil, fmt.Errorf("jobs: checkpoint grid hash %s does not match spec (%s)", cp.Geom.Hash, got)
	}
	if !cp.State.valid() {
		return nil, fmt.Errorf("jobs: checkpoint state %q unknown", cp.State)
	}
	if cp.Geom.Rows <= 0 || cp.Geom.Cols <= 0 || cp.Geom.Total <= 0 {
		return nil, fmt.Errorf("jobs: checkpoint lattice %dx%d total %d",
			cp.Geom.Rows, cp.Geom.Cols, cp.Geom.Total)
	}
	if max := cp.Geom.Rows * cp.Geom.Cols * len(cp.Geom.Spec.RadiiKm); cp.Geom.Total > max {
		return nil, fmt.Errorf("jobs: checkpoint total %d exceeds lattice capacity %d", cp.Geom.Total, max)
	}
	if len(cp.Cells) > cp.Geom.Total {
		return nil, fmt.Errorf("jobs: checkpoint has %d cells for total %d", len(cp.Cells), cp.Geom.Total)
	}
	seen := make(map[int]bool, len(cp.Cells))
	for i := range cp.Cells {
		idx := cp.Cells[i].Index
		if idx < 0 || idx >= cp.Geom.Total {
			return nil, fmt.Errorf("jobs: checkpoint cell index %d out of range [0,%d)", idx, cp.Geom.Total)
		}
		if seen[idx] {
			return nil, fmt.Errorf("jobs: checkpoint cell index %d duplicated", idx)
		}
		seen[idx] = true
	}
	return &cp, nil
}

// checkpointPath is the job's on-disk location; job IDs are generated
// from the spec's and the baseline's hex digests so they are always
// filename-safe, but guard anyway against a hand-edited directory.
func checkpointPath(dir, id string) (string, error) {
	if strings.ContainsAny(id, "/\\") || id == "" || id == "." || id == ".." {
		return "", fmt.Errorf("jobs: invalid job id %q", id)
	}
	return filepath.Join(dir, id+".json"), nil
}

// writeCheckpoint persists atomically: a temp file in the same
// directory, fsync-free (the determinism contract makes a torn write
// merely a lost checkpoint, never corruption — decode rejects it and
// the job restarts from the previous one), then rename over the final
// name.
func writeCheckpoint(dir string, cp *Checkpoint) error {
	path, err := checkpointPath(dir, cp.ID)
	if err != nil {
		return err
	}
	data, err := EncodeCheckpoint(cp)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+cp.ID+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// loadCheckpoint reads and validates one checkpoint file.
func loadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeCheckpoint(data)
}

// readCheckpoint loads and validates one job's checkpoint.
func readCheckpoint(dir, id string) (*Checkpoint, error) {
	path, err := checkpointPath(dir, id)
	if err != nil {
		return nil, err
	}
	cp, err := loadCheckpoint(path)
	if err != nil {
		return nil, err
	}
	if cp.ID != id {
		return nil, fmt.Errorf("jobs: checkpoint %s holds job %s", path, cp.ID)
	}
	return cp, nil
}

// jobID names the sweep of a plan over a baseline by both digests, so
// a checkpoint's file name says which map its cells belong to.
func jobID(planHash, baseline string) string {
	return "sweep-" + planHash[:12] + idSuffix(baseline)
}

// idSuffix is the tail of every job id minted over baseline.
func idSuffix(baseline string) string { return "-" + baseline[:12] }

// readCheckpoints loads every decodable checkpoint in dir whose file
// name carries baseline's id suffix, skipping (and reporting) corrupt
// ones rather than failing recovery outright. Other maps' checkpoints
// are not opened; the caller still checks each decoded baseline.
func readCheckpoints(dir, baseline string) (cps []*Checkpoint, skipped []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	suffix := idSuffix(baseline) + ".json"
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, suffix) || strings.HasPrefix(name, ".") {
			continue
		}
		cp, lerr := loadCheckpoint(filepath.Join(dir, name))
		if lerr != nil {
			skipped = append(skipped, name)
			continue
		}
		cps = append(cps, cp)
	}
	return cps, skipped, nil
}
