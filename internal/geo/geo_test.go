package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// Reference cities with well-known coordinates and pairwise distances.
var (
	nyc = Point{Lat: 40.7128, Lon: -74.0060}
	lax = Point{Lat: 34.0522, Lon: -118.2437}
	chi = Point{Lat: 41.8781, Lon: -87.6298}
	den = Point{Lat: 39.7392, Lon: -104.9903}
	slc = Point{Lat: 40.7608, Lon: -111.8910}
)

func approx(t *testing.T, name string, got, want, tolFrac float64) {
	t.Helper()
	if want == 0 {
		if math.Abs(got) > tolFrac {
			t.Errorf("%s = %v, want ~0", name, got)
		}
		return
	}
	if math.Abs(got-want)/math.Abs(want) > tolFrac {
		t.Errorf("%s = %v, want %v (±%v%%)", name, got, want, tolFrac*100)
	}
}

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		name string
		a, b Point
		km   float64
	}{
		{"NYC-LAX", nyc, lax, 3936},
		{"NYC-CHI", nyc, chi, 1145},
		{"DEN-SLC", den, slc, 598},
		{"CHI-DEN", chi, den, 1480},
	}
	for _, c := range cases {
		approx(t, c.name, c.a.DistanceKm(c.b), c.km, 0.01)
	}
}

func TestDistanceProperties(t *testing.T) {
	gen := usPointGen()
	// Symmetry.
	if err := quick.Check(func(i, j uint32) bool {
		a, b := gen(i), gen(j)
		return math.Abs(a.DistanceKm(b)-b.DistanceKm(a)) < 1e-9
	}, nil); err != nil {
		t.Error(err)
	}
	// Identity.
	if err := quick.Check(func(i uint32) bool {
		a := gen(i)
		return a.DistanceKm(a) == 0
	}, nil); err != nil {
		t.Error(err)
	}
	// Triangle inequality (with a tiny epsilon for float error).
	if err := quick.Check(func(i, j, k uint32) bool {
		a, b, c := gen(i), gen(j), gen(k)
		return a.DistanceKm(c) <= a.DistanceKm(b)+b.DistanceKm(c)+1e-6
	}, nil); err != nil {
		t.Error(err)
	}
}

// usPointGen derives a deterministic point inside the continental US
// from an integer, for property tests.
func usPointGen() func(uint32) Point {
	return func(v uint32) Point {
		lat := 25 + float64(v%2400)/100.0          // 25..49
		lon := -124 + float64((v/2400)%5700)/100.0 // -124..-67
		return Point{Lat: lat, Lon: lon}
	}
}

func TestIntermediateEndpoints(t *testing.T) {
	m := Intermediate(nyc, lax, 0)
	if m.DistanceKm(nyc) > 0.001 {
		t.Errorf("f=0 gave %v, want %v", m, nyc)
	}
	m = Intermediate(nyc, lax, 1)
	if m.DistanceKm(lax) > 0.001 {
		t.Errorf("f=1 gave %v, want %v", m, lax)
	}
}

func TestIntermediateSplitsDistance(t *testing.T) {
	gen := usPointGen()
	if err := quick.Check(func(i, j uint32, fraw uint8) bool {
		a, b := gen(i), gen(j)
		f := float64(fraw) / 255.0
		m := Intermediate(a, b, f)
		d := a.DistanceKm(b)
		return math.Abs(a.DistanceKm(m)-f*d) < 0.5 // within 500 m
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	p := den
	q := p.Offset(90, 100)
	approx(t, "offset distance", p.DistanceKm(q), 100, 0.001)
	// Offsetting back along the reverse bearing returns near the start.
	back := q.Offset(q.BearingDeg(p), p.DistanceKm(q))
	if back.DistanceKm(p) > 0.5 {
		t.Errorf("round trip missed by %.3f km", back.DistanceKm(p))
	}
}

func TestBearingCardinal(t *testing.T) {
	p := Point{Lat: 40, Lon: -100}
	north := Point{Lat: 41, Lon: -100}
	east := Point{Lat: 40, Lon: -99}
	if b := p.BearingDeg(north); math.Abs(b-0) > 0.01 && math.Abs(b-360) > 0.01 {
		t.Errorf("north bearing = %v", b)
	}
	if b := p.BearingDeg(east); math.Abs(b-90) > 0.5 {
		t.Errorf("east bearing = %v", b)
	}
}

func TestBoundsAddContains(t *testing.T) {
	b := EmptyBounds()
	if !b.Empty() {
		t.Fatal("EmptyBounds not empty")
	}
	for _, p := range []Point{nyc, lax, chi} {
		b = b.Add(p)
	}
	for _, p := range []Point{nyc, lax, chi} {
		if !b.Contains(p) {
			t.Errorf("bounds should contain %v", p)
		}
	}
	if b.Contains(Point{Lat: 60, Lon: -100}) {
		t.Error("bounds should not contain a point north of all inputs")
	}
	exp := b.ExpandKm(100)
	if !exp.Contains(Point{Lat: b.MaxLat + 0.5, Lon: -100}) {
		t.Error("expanded bounds should contain a point ~55 km north")
	}
}

func TestPointSegmentDistance(t *testing.T) {
	a := Point{Lat: 40, Lon: -100}
	b := Point{Lat: 40, Lon: -99}
	// Point directly above the midpoint, ~55.66 km north.
	p := Point{Lat: 40.5, Lon: -99.5}
	approx(t, "perpendicular", PointSegmentDistanceKm(p, a, b), 55.66, 0.02)
	// Point beyond an endpoint clamps to the endpoint distance.
	q := Point{Lat: 40, Lon: -98}
	approx(t, "beyond end", PointSegmentDistanceKm(q, a, b), q.DistanceKm(b), 0.001)
	// Degenerate segment.
	approx(t, "degenerate", PointSegmentDistanceKm(q, a, a), q.DistanceKm(a), 0.001)
}

func TestPointSegmentDistanceNeverExceedsEndpointDistance(t *testing.T) {
	gen := usPointGen()
	if err := quick.Check(func(i, j, k uint32) bool {
		a, b, p := gen(i), gen(j), gen(k)
		d := PointSegmentDistanceKm(p, a, b)
		return d <= p.DistanceKm(a)+1e-6 && d <= p.DistanceKm(b)+1e-6
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPolylineLengthAndResample(t *testing.T) {
	pl := Polyline{nyc, chi, den, slc, lax}
	want := nyc.DistanceKm(chi) + chi.DistanceKm(den) + den.DistanceKm(slc) + slc.DistanceKm(lax)
	approx(t, "length", pl.LengthKm(), want, 1e-9)

	rs := pl.Resample(50)
	// Resampling preserves length to high accuracy (great-circle
	// interpolation stays on the same path).
	approx(t, "resampled length", rs.LengthKm(), want, 0.001)
	if rs[0] != pl[0] || rs[len(rs)-1] != pl[len(pl)-1] {
		t.Error("resample must preserve endpoints")
	}
	// No gap exceeds the step (allow small numeric slack).
	for i := 1; i < len(rs); i++ {
		if d := rs[i-1].DistanceKm(rs[i]); d > 50.001 {
			t.Fatalf("gap %d is %.3f km > step", i, d)
		}
	}
	// Non-positive step returns a copy.
	cp := pl.Resample(0)
	if len(cp) != len(pl) {
		t.Fatal("step<=0 should copy")
	}
}

func TestPolylineReverse(t *testing.T) {
	pl := Polyline{nyc, chi, den}
	rv := pl.Reverse()
	if rv[0] != den || rv[2] != nyc {
		t.Errorf("reverse got %v", rv)
	}
	if pl[0] != nyc {
		t.Error("reverse must not mutate the original")
	}
}

func TestPolylineDistanceTo(t *testing.T) {
	pl := Polyline{Point{40, -100}, Point{40, -95}}
	p := Point{41, -97.5}
	approx(t, "distance to line", pl.DistanceToKm(p), 111.2, 0.02)
	if !math.IsInf(Polyline(nil).DistanceToKm(p), 1) {
		t.Error("empty polyline should be infinitely far")
	}
	single := Polyline{Point{40, -100}}
	approx(t, "single point", single.DistanceToKm(p), p.DistanceKm(single[0]), 1e-9)
}

func TestGreatCircle(t *testing.T) {
	gc := GreatCircle(nyc, lax, 10)
	if len(gc) != 11 {
		t.Fatalf("len=%d want 11", len(gc))
	}
	approx(t, "gc length", gc.LengthKm(), nyc.DistanceKm(lax), 0.001)
	if GreatCircle(nyc, lax, 0)[0] != nyc {
		t.Error("n<1 should clamp to a single segment")
	}
}

func TestPerpendicularOffset(t *testing.T) {
	pl := GreatCircle(chi, den, 8)
	off := pl.PerpendicularOffset(5)
	if off[0] != pl[0] || off[len(off)-1] != pl[len(pl)-1] {
		t.Error("offset must pin endpoints")
	}
	for i := 1; i < len(pl)-1; i++ {
		d := pl[i].DistanceKm(off[i])
		approx(t, "interior displacement", d, 5, 0.01)
	}
	// Zero offset copies.
	z := pl.PerpendicularOffset(0)
	for i := range pl {
		if z[i] != pl[i] {
			t.Fatal("zero offset should copy exactly")
		}
	}
}

func TestFiberLatency(t *testing.T) {
	// ~204.2 km per ms.
	approx(t, "1000 km", FiberLatencyMs(1000), 4.896, 0.01)
	// Paper's rule of thumb: 100 µs ≈ 20 km.
	approx(t, "100us km", 0.1*FiberKmPerMs, 20.4, 0.01)
	// Round trip.
	if err := quick.Check(func(raw uint16) bool {
		km := float64(raw)
		return math.Abs(FiberLatencyMs(km)*FiberKmPerMs-km) < 1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestValid(t *testing.T) {
	if !nyc.Valid() {
		t.Error("nyc should be valid")
	}
	if (Point{Lat: 91}).Valid() || (Point{Lon: -200}).Valid() {
		t.Error("out-of-range points must be invalid")
	}
}
