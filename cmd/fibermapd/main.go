// Command fibermapd serves the constructed long-haul fiber map and its
// analyses over HTTP — the programmatic counterpart of the paper's
// public data release. See internal/server for the endpoint list.
//
// Usage:
//
//	fibermapd [-addr :8080] [-seed 42] [-probes 100000]
//	          [-log-level info] [-v] [-timings] [-debug-addr :6060]
//	          [-scenario-inflight 8] [-scenario-queue 16]
//	          [-jobs-dir /var/lib/fibermapd/jobs] [-jobs-workers 0]
//
// The server builds the full study at startup (a few seconds) and then
// serves immutable results; SIGINT/SIGTERM drain connections
// gracefully, and a failed listener drains its sibling before the
// process exits. -timings prints the per-stage build report after the
// study is ready; -debug-addr starts a second listener with pprof,
// expvar, and the Prometheus metrics. -scenario-inflight and
// -scenario-queue tune the admission limiter on the scenario routes
// (overflow is shed with 429 + Retry-After). -jobs-dir persists the
// batch sweep job store's checkpoints there, so a sweep interrupted by
// a restart resumes where it left off; without it jobs run in memory
// only. -jobs-workers sets the sweep's per-batch worker count
// (0 = all CPUs; artifacts are identical at any count).
package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"intertubes/internal/jobs"
	"intertubes/internal/obs"
	"intertubes/internal/server"

	"expvar"
	"flag"

	"intertubes"
)

func main() {
	logger := obs.Logger("fibermapd")
	srv, debugSrv, cleanup, err := setup(os.Args[1:], logger)
	if err != nil {
		os.Exit(setupExitCode(err, logger))
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	code := serve(srv, debugSrv, logger, stop)
	// Listeners are drained; park any in-flight sweep behind its final
	// checkpoint so the next start resumes it.
	cleanup()
	os.Exit(code)
}

// setupExitCode maps a setup failure to the process exit status: 0
// for -h (the flag set has already printed the usage), otherwise the
// error is logged and the status is 1.
func setupExitCode(err error, logger *slog.Logger) int {
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	logger.Error("setup failed", "err", err)
	return 1
}

// listenerErr tags a listener failure with which listener it was, so
// the drain log reads unambiguously.
type listenerErr struct {
	name string
	err  error
}

// serve runs the API listener (and the debug listener, when
// configured) until a stop signal or the first listener failure, then
// drains every listener that is still serving before returning the
// process exit code.
//
// The drain-on-failure ordering is the point: if one listener fails at
// startup — the debug port already bound is the classic — the process
// must not exit with the other listener still holding live
// connections. Shutdown on the listener that failed is a harmless
// no-op, so both are always drained regardless of which one died.
func serve(srv, debugSrv *http.Server, logger *slog.Logger, stop <-chan os.Signal) int {
	errCh := make(chan listenerErr, 2)
	go func() {
		logger.Info("listening", "addr", srv.Addr)
		errCh <- listenerErr{name: "api", err: srv.ListenAndServe()}
	}()
	if debugSrv != nil {
		go func() {
			logger.Info("debug listener up", "addr", debugSrv.Addr)
			errCh <- listenerErr{name: "debug", err: debugSrv.ListenAndServe()}
		}()
	}

	shutdownAll := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Warn("shutdown", "listener", "api", "err", err)
		}
		if debugSrv != nil {
			if err := debugSrv.Shutdown(ctx); err != nil {
				logger.Warn("shutdown", "listener", "debug", "err", err)
			}
		}
	}

	select {
	case sig := <-stop:
		logger.Info("draining", "signal", sig.String())
		shutdownAll()
		return 0
	case e := <-errCh:
		if errors.Is(e.err, http.ErrServerClosed) {
			// Someone shut a listener down cleanly out from under us;
			// drain the rest and exit clean.
			shutdownAll()
			return 0
		}
		logger.Error("serve failed", "listener", e.name, "err", e.err)
		shutdownAll()
		return 1
	}
}

// setup parses flags, builds the study, and returns the configured but
// not-yet-listening API server plus, when -debug-addr is set, a debug
// server exposing pprof, expvar, and /metrics. The cleanup function
// releases the job store after the listeners drain — for a persistent
// store that is the moment the in-flight sweep parks behind its final
// checkpoint.
func setup(args []string, logger *slog.Logger) (*http.Server, *http.Server, func(), error) {
	fs := flag.NewFlagSet("fibermapd", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		seed      = fs.Int64("seed", 42, "study seed")
		probes    = fs.Int("probes", 100000, "traceroute campaign size")
		workers   = fs.Int("workers", 0, "worker pool for the analysis stages (0 = all CPUs; results identical)")
		logLevel  = fs.String("log-level", "info", "log level: debug, info, warn, error")
		verbose   = fs.Bool("v", false, "shorthand for -log-level debug")
		timings   = fs.Bool("timings", false, "print the per-stage build report after the study is built")
		debugAddr = fs.String("debug-addr", "", "optional listen address for pprof/expvar/metrics (e.g. :6060); empty disables")
		inFlight  = fs.Int("scenario-inflight", server.DefaultScenarioInFlight, "max concurrently evaluating scenario requests")
		queue     = fs.Int("scenario-queue", server.DefaultScenarioQueue, "scenario requests allowed to wait for a slot before 429 shedding")
		jobsDir   = fs.String("jobs-dir", "", "checkpoint directory for the batch sweep job store; sweeps resume across restarts (empty = in-memory only)")
		jobsWkrs  = fs.Int("jobs-workers", 0, "worker pool for batch sweep evaluation (0 = all CPUs; artifacts identical at any count)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, nil, nil, err
	}
	if *probes < 1 {
		return nil, nil, nil, fmt.Errorf("-probes must be >= 1 (got %d)", *probes)
	}
	if err := obs.ConfigureLogging(*verbose, *logLevel); err != nil {
		return nil, nil, nil, err
	}

	// Runtime gauges (GC pauses, heap, goroutines, sched latency) ride
	// the registry for the process lifetime; the poller is cheap and
	// the stop function is intentionally dropped.
	obs.StartRuntimeMetrics(10 * time.Second)

	logger.Info("building study", "seed", *seed, "probes", *probes)
	start := time.Now()
	study := intertubes.NewStudy(intertubes.Options{Seed: *seed, Probes: *probes, Workers: *workers})

	// A -jobs-dir (or explicit worker count) gets a store built here so
	// its checkpoints outlive the process; otherwise the server owns a
	// default in-memory store and Close releases it either way.
	var store *jobs.Store
	if *jobsDir != "" || *jobsWkrs != 0 {
		var err error
		store, err = jobs.NewStore(study.Scenarios().Engine(),
			jobs.Options{Dir: *jobsDir, Workers: *jobsWkrs})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("job store: %w", err)
		}
		if *jobsDir != "" {
			logger.Info("job store ready", "dir", *jobsDir, "recovered", len(store.List()))
		}
	}
	handler := server.NewWithConfig(study, logger, server.Config{
		ScenarioInFlight: *inFlight,
		ScenarioQueue:    *queue,
		Jobs:             store,
	})
	cleanup := func() {
		handler.Close()
		if store != nil {
			store.Close()
		}
	}
	logger.Info("study ready", "elapsed", time.Since(start).Round(time.Millisecond))
	if *timings {
		fmt.Fprint(os.Stderr, study.BuildReport())
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	return srv, debugServer(*debugAddr), cleanup, nil
}

// debugServer wires the opt-in diagnostics listener: net/http/pprof,
// the expvar JSON dump, and the Prometheus exposition. Kept off the
// API listener so operators can firewall it separately.
func debugServer(addr string) *http.Server {
	if addr == "" {
		return nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/metrics", obs.ServeMetrics)
	return &http.Server{
		Addr:              addr,
		Handler:           mux,
		ReadHeaderTimeout: 5 * time.Second,
	}
}
