package intertubes_test

// parallel_test.go is the serial-equivalence suite for the par-backed
// hot paths: every figure whose pipeline runs on the worker pool must
// render byte-identically for any worker count at the default seed.
// Table 1, the step-3 table and Figure 1's steps 2-4 report exercise
// the map build's candidate search and records validation, Figure 4
// geo.OverlapAnalyzer.AnalyzeAll, Figure 9 the parallel traceroute
// campaign, Figure 11 the AddConduits candidate scan, and Figure 12
// the all-pairs latency sweep.

import (
	"runtime"
	"testing"

	"intertubes"
)

func renderParallelFigures(workers int) map[string]string {
	s := intertubes.NewStudy(intertubes.Options{
		Probes:          16000,
		LatencyMaxPairs: 300,
		AddConduits:     2,
		Workers:         workers,
	})
	return map[string]string{
		"Table1":   s.RenderTable1(),
		"Step3":    s.RenderStep3(),
		"Figure1":  s.RenderFigure1(),
		"Figure4":  s.RenderFigure4(),
		"Figure9":  s.RenderFigure9(),
		"Figure11": s.RenderFigure11(),
		"Figure12": s.RenderFigure12(),
	}
}

func TestFiguresByteIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the study three times")
	}
	base := renderParallelFigures(1)
	for name, text := range base {
		if len(text) == 0 {
			t.Fatalf("%s rendered empty at workers=1", name)
		}
	}
	counts := []int{2}
	if n := runtime.NumCPU(); n != 1 && n != 2 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		got := renderParallelFigures(workers)
		for name, want := range base {
			if got[name] != want {
				t.Errorf("workers=%d: %s differs from workers=1 output", workers, name)
			}
		}
	}
}
