package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"intertubes"
)

// latency_test.go exercises the paginated atlas endpoint: page
// boundaries, stable source-major ordering across requests, parameter
// validation, and the ETag lifecycle: the tag names the baseline by
// content, so it survives a restart on the same map and never crosses
// maps.

func TestLatencyFirstPage(t *testing.T) {
	var out latencyPageJSON
	resp := getJSON(t, "/api/latency", &out)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Page != 1 || out.Per != latencyDefaultPer {
		t.Fatalf("page/per = %d/%d, want 1/%d", out.Page, out.Per, latencyDefaultPer)
	}
	if out.TotalPairs == 0 {
		t.Fatal("empty atlas")
	}
	want := out.TotalPairs
	if want > out.Per {
		want = out.Per
	}
	if len(out.Pairs) != want {
		t.Fatalf("first page has %d pairs, want %d", len(out.Pairs), want)
	}
	if out.TotalPages != (out.TotalPairs+out.Per-1)/out.Per {
		t.Fatalf("totalPages = %d inconsistent with %d pairs per %d", out.TotalPages, out.TotalPairs, out.Per)
	}
	for _, pl := range out.Pairs {
		if pl.A == "" || pl.B == "" || pl.FiberMs <= 0 || pl.Inflation < 1-1e-9 {
			t.Fatalf("degenerate pair %+v", pl)
		}
	}
}

func TestLatencyLastAndBeyondLastPage(t *testing.T) {
	var first latencyPageJSON
	getJSON(t, "/api/latency?per=7", &first)
	last := first.TotalPages
	var out latencyPageJSON
	getJSON(t, "/api/latency?per=7&page="+itoa(last), &out)
	wantLast := first.TotalPairs - (last-1)*7
	if len(out.Pairs) != wantLast {
		t.Fatalf("last page has %d pairs, want %d", len(out.Pairs), wantLast)
	}
	var beyond latencyPageJSON
	resp := getJSON(t, "/api/latency?per=7&page="+itoa(last+1), &beyond)
	if resp.StatusCode != 200 || len(beyond.Pairs) != 0 {
		t.Fatalf("beyond-last page: status %d, %d pairs; want 200 and none", resp.StatusCode, len(beyond.Pairs))
	}
	if beyond.TotalPairs != first.TotalPairs {
		t.Fatalf("beyond-last totals diverge: %d vs %d", beyond.TotalPairs, first.TotalPairs)
	}
}

// TestLatencyHugePageIsEmpty: page numbers whose offset would
// overflow an int are past the last page like any other — 200 with no
// pairs, never a recovered panic.
func TestLatencyHugePageIsEmpty(t *testing.T) {
	for _, path := range []string{
		"/api/latency?page=9223372036854775807",
		"/api/latency?page=4611686018427387904&per=4",
	} {
		panicsBefore := httpPanics.Value()
		var out latencyPageJSON
		resp := getJSON(t, path, &out)
		if resp.StatusCode != http.StatusOK || len(out.Pairs) != 0 {
			t.Errorf("%s: status %d, %d pairs; want 200 and none", path, resp.StatusCode, len(out.Pairs))
		}
		if out.TotalPairs == 0 {
			t.Errorf("%s: totalPairs = 0, want the atlas size", path)
		}
		if got := httpPanics.Value(); got != panicsBefore {
			t.Errorf("%s: http_panics_total moved %d -> %d", path, panicsBefore, got)
		}
	}
}

// TestLatencyPagesTile: two small pages concatenated must equal one
// double-size page — the ordering is stable and pages never overlap.
func TestLatencyPagesTile(t *testing.T) {
	var p1, p2, both latencyPageJSON
	getJSON(t, "/api/latency?per=10&page=1", &p1)
	getJSON(t, "/api/latency?per=10&page=2", &p2)
	getJSON(t, "/api/latency?per=20&page=1", &both)
	got := append(append([]latencyPairJSON{}, p1.Pairs...), p2.Pairs...)
	if !reflect.DeepEqual(got, both.Pairs) {
		t.Fatal("pages do not tile the per=20 page")
	}
}

func TestLatencyBadParams(t *testing.T) {
	for _, path := range []string{
		"/api/latency?page=0",
		"/api/latency?page=-3",
		"/api/latency?page=abc",
		"/api/latency?per=0",
		"/api/latency?per=1001",
		"/api/latency?per=x",
	} {
		resp, _ := get(t, path)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestLatencyETagLifecycle(t *testing.T) {
	resp, _ := get(t, "/api/latency")
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on latency response")
	}

	req, err := http.NewRequest("GET", srv(t).URL+"/api/latency", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotModified {
		t.Fatalf("matching If-None-Match: status %d, want 304", r2.StatusCode)
	}
}

// TestLatencyVersionMatchesEngine: the payload's baseline is the
// engine's digest — the same value the ETag carries.
func TestLatencyVersionMatchesEngine(t *testing.T) {
	var out latencyPageJSON
	resp := getJSON(t, "/api/latency?per=1", &out)
	if want := study(t).Scenarios().Engine().Baseline(); out.Baseline != want {
		t.Fatalf("page baseline = %q, want the engine's digest %q", out.Baseline, want)
	}
	want := "\"latency-" + out.Baseline + "\""
	if got := resp.Header.Get("ETag"); got != want {
		t.Fatalf("ETag = %q, want %q", got, want)
	}
}

// TestLatencyETagNamesTheMap: two seed-42 studies, as a restart would
// build them, send the same ETag, so a client's 304 survives the
// restart; a seed-7 study sends another, so a 304 never crosses maps.
func TestLatencyETagNamesTheMap(t *testing.T) {
	etag := func(seed int64) string {
		t.Helper()
		st := intertubes.NewStudy(intertubes.Options{Seed: seed, Probes: 1000})
		s := NewWithConfig(st, discardLogger(), Config{})
		defer s.Close()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/api/latency?per=1", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, rec.Code)
		}
		return rec.Header().Get("ETag")
	}
	a, b, c := etag(42), etag(42), etag(7)
	if a == "" || a != b {
		t.Errorf("two seed-42 studies: ETags %q and %q, want one non-empty tag", a, b)
	}
	if c == a {
		t.Errorf("seed-7 study sends the seed-42 ETag %q", c)
	}
}
