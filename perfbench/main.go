// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload for a fixed time, checks every output, and prints the
// workload's end-to-end metrics (untraced run) or its per-layer
// metrics (traced run). The last line of standard output is the
// result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (perfbench/run.sh builds it first):
//
//	perfbench --workload whatif-distinct --seed 1 --seconds 20 --trace 0
//
// --workload all runs every workload in turn, each in its own process.
//
// Server workloads build the server exactly as cmd/fibermapd does and
// drive it over loopback HTTP from closed-loop clients, one per CPU,
// each on one keep-alive connection. The workload seed drives every
// generated input; the program sees only those inputs. Working files
// (job checkpoints, response spools, span dumps) live under
// $PERFBENCH_DIR (default .bench_build); all but the span dumps are
// removed on exit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"intertubes/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	tmp      string // root for per-run checkpoint directories and spools
}

// outcome is what a workload reports: its operation counts, check
// failures, end-to-end and per-layer metrics, and a free-form record
// of sample counts and breakdowns.
type outcome struct {
	attempted int
	failed    int
	problems  []string
	e2e       map[string]float64 // gated, untraced runs
	info      map[string]float64 // reported, untraced runs
	layers    map[string]float64 // traced runs
	notApplic []string
	record    map[string]any
	spans     *tracer // traced runs only
}

func newOutcome() *outcome {
	return &outcome{
		e2e:    make(map[string]float64),
		info:   make(map[string]float64),
		layers: make(map[string]float64),
		record: make(map[string]any),
	}
}

// markPeakRSS records the resident-set high-water mark. Workloads call
// it when their measured window closes, before the checks, which build
// engines of their own.
func (o *outcome) markPeakRSS() error {
	rss, err := peakRSSMiB()
	o.info["peak_rss_mb"] = rss
	return err
}

// fail counts one failed operation and keeps the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run, or all to run each in turn")
		seed    = fs.Int64("seed", 1, "workload seed; drives every generated input")
		seconds = fs.Int("seconds", 20, "length of the measured window")
		trace   = fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if (!ok && *name != "all") || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (all or one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	if !ok {
		return runAll(*seed, *seconds, *trace, stdout, stderr)
	}

	// fibermapd's default log level, with the records discarded: the
	// handler's formatting cost stays, the terminal I/O does not.
	obs.SetOutput(io.Discard)
	if err := obs.ConfigureLogging(false, "info"); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	stopRuntime := obs.StartRuntimeMetrics(10 * time.Second)
	defer stopRuntime()

	dir := os.Getenv("PERFBENCH_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(dir, "perfbench-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	cfg := runConfig{
		workload: w.name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		tmp:      tmp,
	}
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if out.attempted < 1 {
		out.fail("no operation completed in the window")
		out.attempted = 1
	}

	if cfg.traced {
		spansPath := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))
		out.record["spansFile"] = spansPath
		if err := out.spans.write(spansPath); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	if err := report(stdout, w, cfg, out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report prints the human-readable table, the run record, and the
// result line, which is always last.
func report(stdout io.Writer, w workload, cfg runConfig, out *outcome) error {
	specs, values := endToEnd, out.e2e
	if cfg.traced {
		specs, values = perLayer, out.layers
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", w.name, m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}

	fmt.Fprintf(stdout, "%s seed=%d seconds=%d trace=%t: %d attempted, %d failed\n",
		w.name, cfg.seed, int(cfg.seconds/time.Second), cfg.traced, out.attempted, out.failed)
	fmt.Fprintf(stdout, "  op: %s; unit of work: %s\n  why: %s\n", w.op, w.unit, w.why)
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "  FAILED: %s\n", p)
	}
	for _, m := range specs {
		fmt.Fprintf(stdout, "  %-42s %14.4f %s\n", m.name, values[m.name], m.unit)
	}
	if !cfg.traced {
		for _, m := range reported {
			fmt.Fprintf(stdout, "  %-42s %14.4f %s (not gated)\n", m.name, out.info[m.name], m.unit)
		}
		for _, a := range issueNames[w.name] {
			v, ok := out.e2e[a.source]
			if !ok {
				v = out.info[a.source]
			}
			fmt.Fprintf(stdout, "  %-42s %14.4f %s\n", a.name+" = "+a.source, v*a.scale, a.unit)
		}
	}
	if len(out.notApplic) > 0 {
		sort.Strings(out.notApplic)
		out.record["notApplicable"] = out.notApplic
	}
	out.record["workload"] = w.name
	out.record["why"] = w.why
	out.record["seed"] = cfg.seed
	out.record["machine"] = describeMachine()
	rec, err := json.Marshal(out.record)
	if err != nil {
		return fmt.Errorf("encoding run record: %w", err)
	}
	fmt.Fprintf(stdout, "record %s\n", rec)
	line, err := json.Marshal(res)
	if err != nil {
		return errors.New("encoding result: " + err.Error())
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runAll runs every workload in turn, each in a child process of its
// own so no workload inherits another's heap, caches or high-water
// mark, and waits for each to exit.
func runAll(seed int64, seconds, trace int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}
