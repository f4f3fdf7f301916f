package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"intertubes/internal/obs"
)

// measure.go holds the measurement primitives: order statistics with
// the ten-samples-beyond rule, process CPU and peak RSS, host steal,
// Go runtime deltas, and readers for what the program already
// publishes (the /metrics exposition and the stage aggregates).

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending)
// samples: the value at rank ceil(q·n).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond counts the samples ranked above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		return 0
	}
	return n - rank
}

// supportedQuantile is the highest whole percentile, as a fraction,
// that leaves minBeyond samples above it in a sample of n; 0 when n is
// too small for any.
func supportedQuantile(n int) float64 {
	for p := 99; p > 0; p-- {
		if q := float64(p) / 100; beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// rssMiB reads the process's current resident set.
func rssMiB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// sliceEvery is the sampling period of a slicer.
const sliceEvery = time.Second

// slicer samples the process once per sliceEvery while a window is
// open: units of work completed so far, process CPU, resident set.
// Per-slice rates and their medians are steadier than whole-window
// ratios on a shared host, where a stolen second stalls one slice
// rather than shifting the figure.
type slicer struct {
	units func() int64
	stop  chan struct{}
	done  chan struct{}
	marks []mark
}

type mark struct {
	at    time.Time
	units int64
	cpu   time.Duration
	rss   float64
}

func startSlicer(units func() int64) *slicer {
	s := &slicer{units: units, stop: make(chan struct{}), done: make(chan struct{})}
	s.marks = append(s.marks, s.mark())
	go s.loop()
	return s
}

func (s *slicer) mark() mark {
	return mark{at: time.Now(), units: s.units(), cpu: cpuTime(), rss: rssMiB()}
}

func (s *slicer) loop() {
	defer close(s.done)
	t := time.NewTicker(sliceEvery)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.marks = append(s.marks, s.mark())
		}
	}
}

// slices are per-slice figures of a finished slicer.
type slices struct {
	rate   []float64 // units completed per second
	cpuPer []float64 // CPU ms per unit, slices that completed any
	rss    []float64 // MiB at each mark
}

// finish stops sampling and returns the slices. A closing slice
// shorter than half a period is dropped: its rate rests on too few
// units.
func (s *slicer) finish() slices {
	close(s.stop)
	<-s.done
	s.marks = append(s.marks, s.mark())
	var out slices
	for i, m := range s.marks {
		out.rss = append(out.rss, m.rss)
		if i == 0 {
			continue
		}
		p := s.marks[i-1]
		dt := m.at.Sub(p.at)
		if dt < sliceEvery/2 {
			continue
		}
		du := float64(m.units - p.units)
		out.rate = append(out.rate, du/dt.Seconds())
		if du > 0 {
			out.cpuPer = append(out.cpuPer, ms(m.cpu-p.cpu)/du)
		}
	}
	return out
}

// cpuStat is the host-wide aggregate from /proc/stat: all jiffies and
// the stolen ones.
type cpuStat struct{ total, steal float64 }

func readCPUStat() cpuStat {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	for i := 1; i <= 8; i++ { // user..steal; guest time is already in user
		v, _ := strconv.ParseFloat(f[i], 64)
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st
}

// runtimeSample is the slice of runtime/metrics the benchmark reads.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(x metrics.Sample) float64 {
		switch x.Value.Kind() {
		case metrics.KindUint64:
			return float64(x.Value.Uint64())
		case metrics.KindFloat64:
			return x.Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(s[0]), gcCPU: val(s[1]), totalCPU: val(s[2])}
}

// window brackets one measured interval: wall, process CPU, host
// steal, runtime counters, the program's stage aggregates and its
// metric exposition.
type window struct {
	start  time.Time
	cpu    time.Duration
	stat   cpuStat
	rt     runtimeSample
	stages map[string]obs.StageStats
	expo   map[string]float64
}

func openWindow() window {
	return window{
		start:  time.Now(),
		cpu:    cpuTime(),
		stat:   readCPUStat(),
		rt:     readRuntime(),
		stages: stageMap(),
		expo:   exposition(),
	}
}

// windowDelta is what happened between openWindow and close.
type windowDelta struct {
	wall      time.Duration
	cpu       time.Duration
	stealFrac float64
	allocKB   float64
	gcCPUFrac float64
	stages    map[string]obs.StageStats
	expo      map[string]float64
}

func (w window) close() windowDelta {
	end := openWindow()
	d := windowDelta{
		wall:      end.start.Sub(w.start),
		cpu:       end.cpu - w.cpu,
		stealFrac: ratio(end.stat.steal-w.stat.steal, end.stat.total-w.stat.total),
		allocKB:   (end.rt.allocBytes - w.rt.allocBytes) / 1024,
		gcCPUFrac: ratio(end.rt.gcCPU-w.rt.gcCPU, end.rt.totalCPU-w.rt.totalCPU),
		stages:    make(map[string]obs.StageStats),
		expo:      make(map[string]float64),
	}
	for name, st := range end.stages {
		prev := w.stages[name]
		st.Calls -= prev.Calls
		st.TotalNs -= prev.TotalNs
		st.Items -= prev.Items
		d.stages[name] = st
	}
	for k, v := range end.expo {
		d.expo[k] = v - w.expo[k]
	}
	return d
}

// stage returns the differenced aggregate of one program span name.
func (d windowDelta) stage(name string) obs.StageStats { return d.stages[name] }

func stageMap() map[string]obs.StageStats {
	out := make(map[string]obs.StageStats)
	for _, st := range obs.Snapshot() {
		out[st.Name] = st
	}
	return out
}

// exposition parses the Prometheus text the server's /metrics route
// serves, keyed by series ("name" or "name{labels}").
func exposition() map[string]float64 {
	var buf bytes.Buffer
	obs.WritePrometheus(&buf)
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// machine describes where a run happened, for the run record.
type machine struct {
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpuModel"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func describeMachine() machine {
	m := machine{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}
