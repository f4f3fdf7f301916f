package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
)

// ab.go summarizes an A/B run of the end-to-end benchmark: pairs of
// perfbench runs of a parent revision ("base") and of the working tree
// ("head"), one seed per pair. For every end-to-end metric that
// BENCHMARK.json declares it reports each side's median and quartiles,
// the head's wins, the ratio of the medians and a verdict:
//
//   - gain: the head wins at least nine pairs in ten, ties counting for
//     neither, and its median beats the base's by more than the base's
//     interquartile range;
//   - worse than its bound: the head's median is worse than the base's
//     by more than the metric's bound;
//   - unresolved: neither, and the spread of either side's runs (its
//     interquartile range over the base median) is wider than the
//     bound, unless every head run reads better than every base run;
//   - within its bound: otherwise.

// benchSpec is the part of BENCHMARK.json the summary reads.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`
}

// abRun is one line of the runs file the A/B script writes, with the
// result line read from the run's output.
type abRun struct {
	Side   string    `json:"side"` // "base" or "head"
	Pair   int       `json:"pair"`
	Seed   int64     `json:"seed"`
	Exit   int       `json:"exit"`
	Output string    `json:"output"` // path of the run's stdout
	Result *abResult `json:"result,omitempty"`
}

// abResult is perfbench's last stdout line.
type abResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// sideStats is one side's distribution of a metric.
type sideStats struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// metricSummary is one metric's A/B verdict.
type metricSummary struct {
	metricSpec
	Base sideStats `json:"base"`
	Head sideStats `json:"head"`
	// Pairs counts pairs where both sides measured the metric; Wins
	// those the head read better, Losses worse.
	Pairs  int `json:"pairs"`
	Wins   int `json:"wins"`
	Losses int `json:"losses"`
	// Ratio is the head's median over the base's, absent when the base
	// median is 0.
	Ratio   *float64 `json:"ratio,omitempty"`
	Verdict string   `json:"verdict"`
}

// abSummary is the file the ab mode writes.
type abSummary struct {
	Runs     []abRun         `json:"runs"`
	Metrics  []metricSummary `json:"metrics"`
	Failures []string        `json:"failures"`
}

// quantile is the q-quantile of sorted, by linear interpolation
// between the two nearest ranks. sorted must not be empty.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo, hi := math.Floor(pos), math.Ceil(pos)
	return sorted[int(lo)] + (sorted[int(hi)]-sorted[int(lo)])*(pos-lo)
}

func statsOf(values []float64) sideStats {
	s := sideStats{Values: values}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Median, s.Q1, s.Q3 = quantile(sorted, 0.5), quantile(sorted, 0.25), quantile(sorted, 0.75)
	return s
}

// summarizeMetric compares the two sides of one metric; base[i] and
// head[i] are pair i's values, NaN where the run did not measure it.
func summarizeMetric(spec metricSpec, base, head []float64) metricSummary {
	ms := metricSummary{metricSpec: spec}
	// better reports whether a reads better than b in spec's direction.
	better := func(a, b float64) bool {
		if spec.Better == "higher" {
			return a > b
		}
		return a < b
	}
	var bs, hs []float64
	for i := range base {
		if !math.IsNaN(base[i]) {
			bs = append(bs, base[i])
		}
		if !math.IsNaN(head[i]) {
			hs = append(hs, head[i])
		}
		if math.IsNaN(base[i]) || math.IsNaN(head[i]) {
			continue
		}
		ms.Pairs++
		switch {
		case better(head[i], base[i]):
			ms.Wins++
		case better(base[i], head[i]):
			ms.Losses++
		}
	}
	ms.Base, ms.Head = statsOf(bs), statsOf(hs)
	if len(bs) == 0 || len(hs) == 0 {
		ms.Verdict = "unresolved"
		return ms
	}
	bm, hm := ms.Base.Median, ms.Head.Median
	if bm != 0 {
		r := hm / bm
		ms.Ratio = &r
	}
	scale := math.Abs(bm)
	spread := math.Max(ms.Base.Q3-ms.Base.Q1, ms.Head.Q3-ms.Head.Q1)
	worstHead, bestBase := slices.Max(hs), slices.Min(bs)
	if spec.Better == "higher" {
		worstHead, bestBase = slices.Min(hs), slices.Max(bs)
	}
	allBetter := better(worstHead, bestBase)
	switch {
	case ms.Pairs > 0 && ms.Wins*10 >= ms.Pairs*9 && better(hm, bm) && math.Abs(hm-bm) > ms.Base.Q3-ms.Base.Q1:
		ms.Verdict = "gain"
	case better(bm, hm) && math.Abs(hm-bm) > spec.Bound*scale:
		ms.Verdict = "worse than its bound"
	case spread > spec.Bound*scale && !allBetter:
		ms.Verdict = "unresolved"
	default:
		ms.Verdict = "within its bound"
	}
	return ms
}

// lastResult returns the last line of out that decodes as a perfbench
// result, or nil.
func lastResult(out []byte) *abResult {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for i := len(lines) - 1; i >= 0; i-- {
		var r abResult
		if json.Unmarshal(lines[i], &r) == nil && r.Metrics != nil {
			return &r
		}
	}
	return nil
}

// readRuns reads the runs file and each run's result line.
func readRuns(path string) ([]abRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []abRun
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r abRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Side != "base" && r.Side != "head" {
			return nil, fmt.Errorf("%s: run side %q, want base or head", path, r.Side)
		}
		if r.Pair < 0 {
			return nil, fmt.Errorf("%s: negative pair %d", path, r.Pair)
		}
		if out, err := os.ReadFile(r.Output); err == nil {
			r.Result = lastResult(out)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// summarizeAB lists every run that failed — a non-zero exit, no result
// line, a result that is not correct, or failed operations — and
// summarizes the other runs against spec's metrics.
func summarizeAB(spec benchSpec, runs []abRun) abSummary {
	sum := abSummary{Runs: runs, Failures: []string{}}
	pairs := 0
	ok := make([]bool, len(runs))
	for i, r := range runs {
		pairs = max(pairs, r.Pair+1)
		var why string
		switch {
		case r.Exit != 0:
			why = fmt.Sprintf("exit status %d", r.Exit)
		case r.Result == nil:
			why = "no result line"
		case !r.Result.Correct:
			why = "correct: false"
		case r.Result.Failed > 0:
			why = fmt.Sprintf("%d of %d operations failed", r.Result.Failed, r.Result.Attempted)
		}
		if why != "" {
			sum.Failures = append(sum.Failures, fmt.Sprintf("%s pair %d seed %d: %s (%s)", r.Side, r.Pair, r.Seed, why, r.Output))
		}
		ok[i] = why == ""
	}
	for _, m := range spec.EndToEnd {
		base, head := make([]float64, pairs), make([]float64, pairs)
		for i := range base {
			base[i], head[i] = math.NaN(), math.NaN()
		}
		for i, r := range runs {
			if !ok[i] {
				continue
			}
			if v, ok := r.Result.Metrics[m.Name]; ok {
				if r.Side == "base" {
					base[r.Pair] = v.Value
				} else {
					head[r.Pair] = v.Value
				}
			}
		}
		sum.Metrics = append(sum.Metrics, summarizeMetric(m, base, head))
	}
	return sum
}

// runAB is the ab mode: summarize runsPath against specPath's metrics,
// write the summary to outPath, print a table to w, and fail when any
// run failed.
func runAB(runsPath, specPath, outPath string, w io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	runs, err := readRuns(runsPath)
	if err != nil {
		return err
	}
	sum := summarizeAB(spec, runs)
	out, err := json.MarshalIndent(sum, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %28s %28s %7s %7s  %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "wins", "ratio", "verdict")
	for _, m := range sum.Metrics {
		ratio := "-"
		if m.Ratio != nil {
			ratio = fmt.Sprintf("%.3f", *m.Ratio)
		}
		fmt.Fprintf(w, "%-16s %28s %28s %7s %7s  %s\n", m.Name, fmtStats(m.Base), fmtStats(m.Head),
			fmt.Sprintf("%d/%d", m.Wins, m.Pairs), ratio, m.Verdict)
	}
	fmt.Fprintf(w, "benchjson: %d runs -> %s\n", len(runs), outPath)
	if len(sum.Failures) > 0 {
		return fmt.Errorf("%d runs failed:\n  %s", len(sum.Failures), strings.Join(sum.Failures, "\n  "))
	}
	return nil
}

func fmtStats(s sideStats) string {
	if len(s.Values) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}
