package main

import "testing"

// TestTenBeyondRule: a reported percentile keeps at least ten samples
// above it, so p99 needs 1000 samples.
func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want int
	}{{1000, 0.99, 10}, {999, 0.99, 9}, {2000, 0.99, 20}, {10, 0.5, 5}} {
		if got := beyond(c.n, c.q); got != c.want {
			t.Errorf("beyond(%d, %g) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 0.99}, {999, 0.98}, {5000, 0.99}, {500, 0.98}, {100, 0.90}, {20, 0.5}, {19, 0.47}, {10, 0}} {
		q := supportedQuantile(c.n)
		if q != c.want {
			t.Errorf("supportedQuantile(%d) = %g, want %g", c.n, q, c.want)
		}
		if q > 0 && beyond(c.n, q) < minBeyond {
			t.Errorf("supportedQuantile(%d) leaves %d beyond", c.n, beyond(c.n, q))
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
}
