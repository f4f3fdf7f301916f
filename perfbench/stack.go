package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"intertubes"
	"intertubes/internal/jobs"
	"intertubes/internal/obs"
	"intertubes/internal/server"
)

// stack.go builds the server exactly as cmd/fibermapd does — the study
// at fibermapd's defaults, a job store on its own checkpoint
// directory, server.NewWithConfig with default admission, and
// fibermapd's http.Server timeouts — and serves it on a loopback
// listener in this process.

const (
	serverSeed   = 42     // fibermapd -seed default
	serverProbes = 100000 // fibermapd -probes default
)

type stack struct {
	study    *intertubes.Study
	buildDur time.Duration // NewStudy wall time
	clients  []*client
	store    *jobs.Store
	handler  *server.Server
	wrap     *wrapped // non-nil in traced runs
	httpSrv  *http.Server
	served   chan error
	base     string
	dir      string
}

// newStack builds and starts one server stack with nClients clients.
// Its checkpoint directory is fresh under tmpRoot, because
// jobs.NewStore recovers every job it finds in an existing one.
func newStack(tmpRoot string, nClients int, tr *tracer) (*stack, error) {
	dir, err := os.MkdirTemp(tmpRoot, "jobs-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir}
	s.buildDur = tr.time(0, "mapbuilder.NewStudy", "setup", func() {
		s.study = intertubes.NewStudy(intertubes.Options{Seed: serverSeed, Probes: serverProbes})
	})
	s.store, err = jobs.NewStore(s.study.Scenarios().Engine(), jobs.Options{Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("job store: %w", err)
	}
	s.handler = server.NewWithConfig(s.study, obs.Logger("fibermapd"), server.Config{
		ScenarioInFlight: server.DefaultScenarioInFlight,
		ScenarioQueue:    server.DefaultScenarioQueue,
		Jobs:             s.store,
	})
	var h http.Handler = s.handler
	if tr != nil {
		s.wrap = wrapHandler(s.handler, tr)
		h = s.wrap
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.handler.Close()
		s.store.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.httpSrv = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	for i := 0; i < nClients; i++ {
		s.clients = append(s.clients, newClient(s.base))
	}
	return s, nil
}

// close drains the listener, then releases the server and the store in
// fibermapd's order, waits for the serve goroutine, and removes the
// checkpoint directory.
func (s *stack) close() error {
	for _, c := range s.clients {
		c.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serveErr := <-s.served; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	s.handler.Close()
	s.store.Close()
	if rmErr := os.RemoveAll(s.dir); err == nil {
		err = rmErr
	}
	return err
}

// client is one closed-loop client holding a single keep-alive
// connection.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// response is one completed round trip. body aliases the client's
// buffer and is valid until the client's next request.
type response struct {
	status int
	header http.Header
	body   []byte
}

// do sends one request and reads the whole body.
func (c *client) do(method, path string, body []byte, hdr map[string]string) (response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return response{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return response{}, err
	}
	return response{status: resp.StatusCode, header: resp.Header, body: c.buf.Bytes()}, nil
}

// setupRounds is how many times a server workload builds its stack.
const setupRounds = 3

// setupStats are the per-round set-up measurements.
type setupStats struct {
	total  []float64 // seconds from the start of the build to ready
	builds []float64 // NewStudy seconds
}

// setups builds the stack setupRounds times and keeps the last one:
// setup_s is the median, so a slow host moment moves it less while
// work moved into set-up still shows. prepare runs untimed after each
// build (input generation is the benchmark's cost, not the server's);
// warm runs next and counts as set-up. Earlier stacks are torn down
// and their memory returned before the next build.
func setups(tmpRoot string, nClients int, tr *tracer, prepare, warm func(*stack) error) (*stack, setupStats, error) {
	var st setupStats
	for i := 0; ; i++ {
		start := time.Now()
		s, err := newStack(tmpRoot, nClients, tr)
		if err != nil {
			return nil, st, err
		}
		built := time.Since(start)
		if err := prepare(s); err != nil {
			s.close()
			return nil, st, err
		}
		warmStart := time.Now()
		if err := warm(s); err != nil {
			s.close()
			return nil, st, fmt.Errorf("warm-up: %w", err)
		}
		st.total = append(st.total, (built + time.Since(warmStart)).Seconds())
		st.builds = append(st.builds, s.buildDur.Seconds())
		if i == setupRounds-1 {
			return s, st, nil
		}
		if err := s.close(); err != nil {
			return nil, st, err
		}
		runtime.GC()
		debug.FreeOSMemory()
	}
}
