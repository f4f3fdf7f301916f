// Command benchjson converts the test2json stream of a
// `go test -bench -json` run into a compact machine-readable summary:
// one record per benchmark with its iteration count and every
// reported metric (ns/op, B/op, allocs/op, custom units).
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -json ./... | benchjson -o BENCH_obs.json
//
// scripts/bench.sh wraps exactly that pipeline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of test2json's record we consume.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// Result is one parsed benchmark line.
type Result struct {
	Package string             `json:"package"`
	Name    string             `json:"name"`
	N       int64              `json:"n"`
	Metrics map[string]float64 `json:"metrics"`
}

// Summary is the file benchjson writes.
type Summary struct {
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, errOut io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("o", "BENCH_obs.json", "output file")
	baseline := fs.String("baseline", "", "baseline summary to compare against (fails on ns/op regressions)")
	tolerance := fs.Float64("tolerance", 0.25, "allowed fractional ns/op slowdown vs -baseline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	sum, err := parseStream(in)
	if err != nil {
		return err
	}
	deriveOverheadRatios(sum)
	deriveCellRates(sum)
	raw, err := json.MarshalIndent(sum, "", " ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(*out, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(errOut, "benchjson: %d benchmarks -> %s\n", len(sum.Benchmarks), *out)
	if *baseline != "" {
		return compareBaseline(sum, *baseline, *tolerance, errOut)
	}
	return nil
}

// compareBaseline checks every benchmark present in both the new
// summary and the baseline file: a ns/op more than tolerance above
// the baseline's is a regression, and one or more regressions fail
// the run. Each compared benchmark gets one line with both sides'
// ns/op, their ratio and both sides' allocs/op, before the verdict. A
// benchmark present on only one side — renamed, moved to another
// package, added or deleted — is listed as not compared, and a run
// that compares nothing fails.
func compareBaseline(sum *Summary, path string, tolerance float64, errOut io.Writer) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Summary
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	old := make(map[string]map[string]float64)
	for _, r := range base.Benchmarks {
		if r.Metrics["ns/op"] > 0 {
			old[r.Package+" "+r.Name] = r.Metrics
		}
	}
	matched := make(map[string]bool)
	regressions := 0
	for _, r := range sum.Benchmarks {
		ns := r.Metrics["ns/op"]
		if ns <= 0 {
			continue
		}
		key := r.Package + " " + r.Name
		oldMetrics, ok := old[key]
		if !ok {
			fmt.Fprintf(errOut, "benchjson: not compared, not in %s: %s\n", path, key)
			continue
		}
		matched[key] = true
		oldNs := oldMetrics["ns/op"]
		fmt.Fprintf(errOut, "benchjson: compared %s: %.0f -> %.0f ns/op (x%.3f), allocs/op %s -> %s\n",
			key, oldNs, ns, ns/oldNs, allocsOf(oldMetrics), allocsOf(r.Metrics))
		if ns > oldNs*(1+tolerance) {
			regressions++
			fmt.Fprintf(errOut, "benchjson: REGRESSION %s %s: %.0f ns/op vs baseline %.0f (+%.0f%%, tolerance %.0f%%)\n",
				r.Package, r.Name, ns, oldNs, (ns/oldNs-1)*100, tolerance*100)
		}
	}
	var missing []string
	for key := range old {
		if !matched[key] {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		fmt.Fprintf(errOut, "benchjson: not compared, only in %s: %s\n", path, key)
	}
	compared := len(matched)
	if compared == 0 {
		return fmt.Errorf("no benchmark of this run is in %s: nothing compared", path)
	}
	if regressions > 0 {
		return fmt.Errorf("%d of %d compared benchmarks regressed >%.0f%% vs %s", regressions, compared, tolerance*100, path)
	}
	fmt.Fprintf(errOut, "benchjson: %d benchmarks within %.0f%% of %s\n", compared, tolerance*100, path)
	return nil
}

// allocsOf formats a benchmark's allocs/op, or "-" when the run did
// not report it (no -benchmem).
func allocsOf(metrics map[string]float64) string {
	a, ok := metrics["allocs/op"]
	if !ok {
		return "-"
	}
	return strconv.FormatFloat(a, 'f', -1, 64)
}

// parseStream reads a test2json stream and collects every benchmark
// result line. Non-JSON lines (plain `go test` output piped in by
// mistake) are tolerated: they are scanned as bare text.
//
// test2json flushes partial lines: a slow benchmark emits its name
// ("BenchmarkX   \t") as one output event and the stats as a later
// one. Output is therefore reassembled into whole lines per package
// before parsing, keyed by package so interleaved `./...` streams
// cannot corrupt each other.
func parseStream(in io.Reader) (*Summary, error) {
	sum := &Summary{Benchmarks: []Result{}}
	partial := make(map[string]string)
	emit := func(pkg, line string) {
		if r, ok := parseBenchLine(pkg, line); ok {
			sum.Benchmarks = append(sum.Benchmarks, r)
		}
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			ev = event{Action: "output", Output: line + "\n"}
		}
		if ev.Action != "output" {
			continue
		}
		buf := partial[ev.Package] + ev.Output
		for {
			nl := strings.IndexByte(buf, '\n')
			if nl < 0 {
				break
			}
			emit(ev.Package, buf[:nl])
			buf = buf[nl+1:]
		}
		partial[ev.Package] = buf
	}
	// Trailing unterminated output still counts (bare-text input with
	// no final newline).
	for pkg, buf := range partial {
		if buf != "" {
			emit(pkg, buf)
		}
	}
	return sum, sc.Err()
}

// deriveOverheadRatios appends a synthetic result for every
// ".../recorder=on" benchmark with a same-package ".../recorder=off"
// sibling: "<base>/recorder-overhead" carrying the on/off ns-per-op
// ratio. The tracing acceptance bar (enabled recorder <= 1.05x) reads
// straight off this record in BENCH_obs.json.
func deriveOverheadRatios(sum *Summary) {
	const onSuffix, offSuffix = "/recorder=on", "/recorder=off"
	off := make(map[string]float64)
	for _, r := range sum.Benchmarks {
		if strings.HasSuffix(r.Name, offSuffix) {
			off[r.Package+" "+strings.TrimSuffix(r.Name, offSuffix)] = r.Metrics["ns/op"]
		}
	}
	for _, r := range sum.Benchmarks {
		if !strings.HasSuffix(r.Name, onSuffix) {
			continue
		}
		base := strings.TrimSuffix(r.Name, onSuffix)
		offNs := off[r.Package+" "+base]
		onNs := r.Metrics["ns/op"]
		if offNs <= 0 || onNs <= 0 {
			continue
		}
		sum.Benchmarks = append(sum.Benchmarks, Result{
			Package: r.Package,
			Name:    base + "/recorder-overhead",
			N:       r.N,
			Metrics: map[string]float64{"ratio": onNs / offNs},
		})
	}
}

// deriveCellRates folds a "cells/s" metric into every benchmark that
// reports a "cells" count (the grid-sweep benchmarks): the cells per
// iteration over the seconds per iteration. That is the jobs
// subsystem's headline throughput, read straight off BENCH_obs.json.
func deriveCellRates(sum *Summary) {
	for _, r := range sum.Benchmarks {
		cells, ns := r.Metrics["cells"], r.Metrics["ns/op"]
		if cells > 0 && ns > 0 {
			r.Metrics["cells/s"] = cells / (ns / 1e9)
		}
	}
}

// parseBenchLine parses one benchmark result line of the form
//
//	BenchmarkName-8   120   9876543 ns/op   456 B/op   7 allocs/op
//
// returning ok=false for anything else (headers, PASS lines, logs).
// The trailing -N GOMAXPROCS suffix is stripped from the name so
// summaries diff cleanly across machines with different core counts.
func parseBenchLine(pkg, line string) (Result, bool) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Package: pkg, Name: stripCPUSuffix(fields[0]), N: n, Metrics: map[string]float64{}}
	// Remaining fields come in (value, unit) pairs.
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return Result{}, false
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Result{}, false
		}
		r.Metrics[rest[i+1]] = v
	}
	return r, true
}

// stripCPUSuffix removes the "-8" style GOMAXPROCS suffix go test
// appends to benchmark names. Only an all-digit run after the final
// dash is removed, so names like "Benchmark.../workers=2" survive.
func stripCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}
