package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"intertubes/internal/obs"
)

func quietLogger(t *testing.T) {
	t.Helper()
	obs.SetOutput(io.Discard)
	t.Cleanup(func() { obs.SetOutput(nil) })
}

func TestSetup(t *testing.T) {
	quietLogger(t)
	srv, debugSrv, cleanup, err := setup([]string{"-addr", ":9999", "-probes", "2000"}, obs.Logger("test"))
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if srv.Addr != ":9999" {
		t.Errorf("addr = %q", srv.Addr)
	}
	if debugSrv != nil {
		t.Error("debug server should be nil without -debug-addr")
	}
	// The wired handler serves without listening on a real port.
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "ok") {
		t.Errorf("healthz = %d %s", resp.StatusCode, body)
	}
}

func TestSetupBadFlags(t *testing.T) {
	quietLogger(t)
	for _, args := range [][]string{{"-bogus"}, {"-probes", "-1"}, {"-probes", "0"}} {
		if _, _, _, err := setup(args, obs.Logger("test")); err == nil {
			t.Errorf("%v: expected flag error", args)
		}
	}
}

// TestSetupJobsDir pins the persistent-store wiring: with -jobs-dir,
// a sweep submitted over HTTP leaves a checkpoint file behind, and the
// cleanup function shuts the store down without losing it.
func TestSetupJobsDir(t *testing.T) {
	quietLogger(t)
	dir := t.TempDir()
	srv, _, cleanup, err := setup(
		[]string{"-probes", "2000", "-jobs-dir", dir, "-jobs-workers", "2"},
		obs.Logger("test"))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/api/jobs/sweep", "application/json",
		strings.NewReader(`{"cellKm": 500, "radiiKm": [80]}`))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: status %d, id %q, err %v", resp.StatusCode, st.ID, err)
	}

	// Wait for the sweep to finish, then park the store.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/api/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			State string `json:"state"`
			Err   string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.State == "done" {
			break
		}
		if got.State == "failed" || got.State == "canceled" {
			t.Fatalf("job ended %s (%s)", got.State, got.Err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(25 * time.Millisecond)
	}
	cleanup()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.Contains(entries[0].Name(), st.ID) {
		t.Errorf("checkpoint dir after shutdown: %v", entries)
	}
}

// occupiedAddr binds a port for the duration of the test and returns
// its address, so a server given that address fails to listen.
func occupiedAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l.Addr().String()
}

// drainObserved wires a Shutdown observation onto a server: the
// returned channel closes when (and only when) the server is drained.
func drainObserved(srv *http.Server) <-chan struct{} {
	ch := make(chan struct{})
	srv.RegisterOnShutdown(func() { close(ch) })
	return ch
}

func waitDrained(t *testing.T, name string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s listener was not drained", name)
	}
}

// TestServeDebugFailureDrainsAPI pins the startup-failure fix: a debug
// listener that cannot bind must drain the API listener before the
// process exits, not abandon it mid-flight.
func TestServeDebugFailureDrainsAPI(t *testing.T) {
	quietLogger(t)
	srv := &http.Server{Addr: "127.0.0.1:0", Handler: http.NewServeMux()}
	debugSrv := &http.Server{Addr: occupiedAddr(t), Handler: http.NewServeMux()}
	apiDrained := drainObserved(srv)

	stop := make(chan os.Signal)
	if code := serve(srv, debugSrv, obs.Logger("test"), stop); code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	waitDrained(t, "api", apiDrained)
}

// TestServeAPIFailureDrainsDebug is the mirrored ordering: the API
// listener failing must drain the debug listener.
func TestServeAPIFailureDrainsDebug(t *testing.T) {
	quietLogger(t)
	srv := &http.Server{Addr: occupiedAddr(t), Handler: http.NewServeMux()}
	debugSrv := &http.Server{Addr: "127.0.0.1:0", Handler: http.NewServeMux()}
	debugDrained := drainObserved(debugSrv)

	stop := make(chan os.Signal)
	if code := serve(srv, debugSrv, obs.Logger("test"), stop); code != 1 {
		t.Errorf("exit code = %d, want 1", code)
	}
	waitDrained(t, "debug", debugDrained)
}

// TestServeSignalDrainsBoth covers the clean path: a stop signal
// drains both listeners and exits 0.
func TestServeSignalDrainsBoth(t *testing.T) {
	quietLogger(t)
	srv := &http.Server{Addr: "127.0.0.1:0", Handler: http.NewServeMux()}
	debugSrv := &http.Server{Addr: "127.0.0.1:0", Handler: http.NewServeMux()}
	apiDrained := drainObserved(srv)
	debugDrained := drainObserved(debugSrv)

	stop := make(chan os.Signal, 1)
	stop <- syscall.SIGTERM
	if code := serve(srv, debugSrv, obs.Logger("test"), stop); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
	waitDrained(t, "api", apiDrained)
	waitDrained(t, "debug", debugDrained)
}

// TestServeNoDebugSignal covers the common production shape: no debug
// listener configured.
func TestServeNoDebugSignal(t *testing.T) {
	quietLogger(t)
	srv := &http.Server{Addr: "127.0.0.1:0", Handler: http.NewServeMux()}
	apiDrained := drainObserved(srv)
	stop := make(chan os.Signal, 1)
	stop <- syscall.SIGTERM
	if code := serve(srv, nil, obs.Logger("test"), stop); code != 0 {
		t.Errorf("exit code = %d, want 0", code)
	}
	waitDrained(t, "api", apiDrained)
}

func TestDebugServer(t *testing.T) {
	quietLogger(t)
	srv := debugServer(":0")
	if srv == nil {
		t.Fatal("expected a debug server")
	}
	ts := httptest.NewServer(srv.Handler)
	defer ts.Close()
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s = %d", path, resp.StatusCode)
		}
	}
}

// TestSetupExitCode: -h prints the usage and exits 0 without logging a
// failure; any other parse error is logged and exits 1.
func TestSetupExitCode(t *testing.T) {
	var logs strings.Builder
	obs.SetOutput(&logs)
	t.Cleanup(func() { obs.SetOutput(nil) })
	logger := obs.Logger("test")

	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	_, _, _, err = setup([]string{"-h"}, logger)
	os.Stderr = saved
	usage, _ := os.ReadFile(f.Name())
	if code := setupExitCode(err, logger); code != 0 || logs.Len() != 0 || !strings.Contains(string(usage), "-probes") {
		t.Errorf("-h: exit %d, logged %q, usage %q; want 0, no log and the usage", code, logs.String(), usage)
	}

	_, _, _, err = setup([]string{"-bogus"}, logger)
	if code := setupExitCode(err, logger); code != 1 || !strings.Contains(logs.String(), "setup failed") {
		t.Errorf("-bogus: exit %d, logged %q; want 1 and a logged failure", code, logs.String())
	}
}
