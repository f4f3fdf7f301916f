package geo

import (
	"math/rand"
	"testing"
)

func TestGridIndexBasics(t *testing.T) {
	idx := NewGridIndex(25)
	// A horizontal line along latitude 40.
	line := Polyline{Point{40, -105}, Point{40, -100}}
	idx.InsertPolyline(line.Resample(25))

	near := Point{40.1, -102.5} // ~11 km north of the line
	far := Point{43, -102.5}    // ~333 km north

	if !idx.AnyWithinKm(near, 15) {
		t.Error("near point should be within 15 km")
	}
	if idx.AnyWithinKm(far, 15) {
		t.Error("far point should not be within 15 km")
	}
}

// The index must agree with brute force on random data.
func TestGridIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var lines []Polyline
	idx := NewGridIndex(30)
	for i := 0; i < 40; i++ {
		a := Point{Lat: 30 + rng.Float64()*15, Lon: -120 + rng.Float64()*40}
		b := a.Offset(rng.Float64()*360, 50+rng.Float64()*400)
		pl := GreatCircle(a, b, 6)
		lines = append(lines, pl)
		idx.InsertPolyline(pl)
	}
	for trial := 0; trial < 200; trial++ {
		p := Point{Lat: 30 + rng.Float64()*15, Lon: -120 + rng.Float64()*40}
		radius := 20 + rng.Float64()*80
		brute := false
		for _, pl := range lines {
			if pl.DistanceToKm(p) <= radius {
				brute = true
				break
			}
		}
		got := idx.AnyWithinKm(p, radius)
		if got != brute {
			t.Fatalf("trial %d: index=%v brute=%v (p=%v r=%.1f)", trial, got, brute, p, radius)
		}
	}
}

func TestNewGridIndexPanicsOnBadCell(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive cell size")
		}
	}()
	NewGridIndex(0)
}
