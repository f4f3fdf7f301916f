package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStatsOfQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in             []float64
		median, q1, q3 float64
	}{
		{[]float64{4, 1, 3, 2}, 2.5, 1.75, 3.25},
		{[]float64{5, 1, 3}, 3, 2, 4},
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 3.25, 7.75},
	} {
		s := statsOf(tc.in)
		if s.Median != tc.median || s.Q1 != tc.q1 || s.Q3 != tc.q3 {
			t.Errorf("statsOf(%v) = median %v [%v, %v], want %v [%v, %v]", tc.in, s.Median, s.Q1, s.Q3, tc.median, tc.q1, tc.q3)
		}
	}
}

// spread returns n values centred on mid, evenly spaced by step.
func spread(mid, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = mid + step*(float64(i)-float64(n-1)/2)
	}
	return out
}

func TestSummarizeMetricVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.25}
	higher := metricSpec{Name: "work_per_s", Better: "higher", Bound: 0.25}
	for _, tc := range []struct {
		name       string
		spec       metricSpec
		base, head []float64
		wins, loss int
		verdict    string
	}{
		{"higher is better: a clear gain", higher, spread(100, 1, 10), spread(130, 1, 10), 10, 0, "gain"},
		{"lower is better: a clear gain", lower, spread(2, 0.01, 10), spread(1.5, 0.01, 10), 10, 0, "gain"},
		{"8 of 10 wins is no gain", higher, spread(100, 1, 10),
			[]float64{130, 130, 130, 130, 130, 130, 130, 130, 90, 90}, 8, 2, "within its bound"},
		{"a gap inside the base IQR is no gain", higher, spread(100, 4, 10), spread(105, 4, 10), 10, 0, "within its bound"},
		{"lower is better: worse than its bound", lower, spread(2, 0.01, 10), spread(2.6, 0.01, 10), 0, 10, "worse than its bound"},
		{"higher is better: worse than its bound", higher, spread(100, 1, 10), spread(70, 1, 10), 0, 10, "worse than its bound"},
		{"slower inside its bound", lower, spread(2, 0.01, 10), spread(2.2, 0.01, 10), 0, 10, "within its bound"},
		{"a spread wider than the bound is unresolved", higher, spread(100, 10, 10), spread(95, 10, 10), 0, 10, "unresolved"},
		{"wide but every head run better", higher, spread(100, 4, 10), spread(160, 4, 10), 10, 0, "gain"},
		{"ties count for neither", lower, []float64{1, 2, 3}, []float64{1, 1, 4}, 1, 1, "unresolved"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms := summarizeMetric(tc.spec, tc.base, tc.head)
			if ms.Wins != tc.wins || ms.Losses != tc.loss || ms.Pairs != len(tc.base) {
				t.Errorf("wins/losses/pairs = %d/%d/%d, want %d/%d/%d", ms.Wins, ms.Losses, ms.Pairs, tc.wins, tc.loss, len(tc.base))
			}
			if ms.Verdict != tc.verdict {
				t.Errorf("verdict %q, want %q (base %+v, head %+v)", ms.Verdict, tc.verdict, ms.Base, ms.Head)
			}
			if ms.Ratio == nil || *ms.Ratio != ms.Head.Median/ms.Base.Median {
				t.Errorf("ratio %v, want head median over base median", ms.Ratio)
			}
		})
	}

	// Every run of the change better than every run of the parent
	// settles a spread wider than the bound, even short of a gain.
	ms := summarizeMetric(higher, []float64{40, 100, 160, 100}, []float64{150, 151, 90, 152})
	if ms.Verdict != "unresolved" || ms.Wins != 3 {
		t.Errorf("overlapping wide runs: verdict %q wins %d, want unresolved, 3", ms.Verdict, ms.Wins)
	}
	ms = summarizeMetric(higher, []float64{0, 0, 200, 200}, []float64{201, 202, 203, 204})
	if ms.Verdict != "within its bound" || ms.Wins != 4 {
		t.Errorf("disjoint runs, gap inside the base IQR: verdict %q wins %d, want within its bound, 4", ms.Verdict, ms.Wins)
	}

	// A pair with a missing side counts for neither side's wins; its
	// present value still enters that side's median.
	ms = summarizeMetric(lower, []float64{1, math.NaN(), 1}, []float64{2, 0.5, 2})
	if ms.Pairs != 2 || ms.Losses != 2 || len(ms.Head.Values) != 3 {
		t.Errorf("missing value: pairs %d losses %d head values %v", ms.Pairs, ms.Losses, ms.Head.Values)
	}
	if ms := summarizeMetric(lower, []float64{0, 0}, []float64{0, 0}); ms.Ratio != nil || ms.Verdict != "within its bound" {
		t.Errorf("zero medians: ratio %v verdict %q", ms.Ratio, ms.Verdict)
	}
}

func TestRunABListsFailedRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	result := func(correct bool, failed int, work float64) string {
		return fmt.Sprintf("table line\nrecord {}\n{\"correct\":%v,\"attempted\":10,\"failed\":%d,\"metrics\":{\"work_per_s\":{\"value\":%v,\"unit\":\"1/s\"}}}\n", correct, failed, work)
	}
	spec := write("spec.json", `{"end_to_end":[{"name":"work_per_s","unit":"1/s","better":"higher","bound":0.25}]}`)
	outs := []string{
		write("b0", result(true, 0, 100)), write("h0", result(true, 0, 120)),
		write("b1", "build failed\n"), write("h1", result(false, 1, 120)),
		write("b2", result(true, 0, 100)), write("h2", result(true, 0, 118)),
	}
	var lines []string
	for i, out := range outs {
		side, exit := "base", 0
		if i%2 == 1 {
			side = "head"
		}
		if i == 2 {
			exit = 1
		}
		lines = append(lines, fmt.Sprintf(`{"side":%q,"pair":%d,"seed":%d,"exit":%d,"output":%q}`, side, i/2, 900+i/2, exit, out))
	}
	runs := write("runs.jsonl", strings.Join(lines, "\n")+"\n")
	var log strings.Builder
	err := runAB(runs, spec, filepath.Join(dir, "ab.json"), &log)
	if err == nil || !strings.Contains(err.Error(), "2 runs failed") {
		t.Fatalf("err = %v, want 2 failed runs", err)
	}
	for _, want := range []string{"base pair 1 seed 901: exit status 1", "head pair 1 seed 901: correct: false"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("failure list %q lacks %q", err, want)
		}
	}
	if !strings.Contains(log.String(), "work_per_s") {
		t.Errorf("table lacks the metric:\n%s", log.String())
	}
	raw, err := os.ReadFile(filepath.Join(dir, "ab.json"))
	if err != nil || !strings.Contains(string(raw), `"pairs": 2`) || !strings.Contains(string(raw), `"wins": 2`) {
		t.Errorf("summary %s (err %v): want the 2 pairs without a failed run, both won", raw, err)
	}
}
