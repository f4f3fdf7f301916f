package risk

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
)

// testMap builds a small map with known sharing:
//
//	c0 A-B: L3, Sprint, ATT   (3 tenants)
//	c1 B-C: L3, Sprint        (2)
//	c2 C-D: L3                (1)
//	c3 A-D: Cox               (1, Cox only)
func testMap(t *testing.T) *fiber.Map {
	t.Helper()
	m := fiber.NewMap()
	a := m.AddNode("A", "XX", geo.Point{Lat: 40, Lon: -100}, 1, -1)
	b := m.AddNode("B", "XX", geo.Point{Lat: 41, Lon: -101}, 1, -1)
	c := m.AddNode("C", "XX", geo.Point{Lat: 42, Lon: -102}, 1, -1)
	d := m.AddNode("D", "XX", geo.Point{Lat: 43, Lon: -103}, 1, -1)
	mk := func(x, y fiber.NodeID, corr int) fiber.ConduitID {
		return m.EnsureConduit(x, y, corr, geo.GreatCircle(m.Node(x).Loc, m.Node(y).Loc, 2))
	}
	c0 := mk(a, b, 0)
	c1 := mk(b, c, 1)
	c2 := mk(c, d, 2)
	c3 := mk(a, d, 3)
	for _, isp := range []string{"Level 3", "Sprint", "AT&T"} {
		m.AddTenant(c0, isp)
	}
	m.AddTenant(c1, "Level 3")
	m.AddTenant(c1, "Sprint")
	m.AddTenant(c2, "Level 3")
	m.AddTenant(c3, "Cox")
	return m
}

func TestBuildDimensions(t *testing.T) {
	m := testMap(t)
	mx := Build(m, nil)
	if len(mx.ISPs) != 4 {
		t.Errorf("ISPs = %v", mx.ISPs)
	}
	if len(mx.Conduits) != 4 {
		t.Errorf("conduits = %v", mx.Conduits)
	}
}

func TestSharingValues(t *testing.T) {
	m := testMap(t)
	mx := Build(m, nil)
	want := map[int]int{0: 3, 1: 2, 2: 1, 3: 1}
	for cid, n := range want {
		if got := mx.Sharing(fiber.ConduitID(cid)); got != n {
			t.Errorf("sharing(%d) = %d, want %d", cid, got, n)
		}
	}
	if mx.Sharing(fiber.ConduitID(99)) != 0 {
		t.Error("unknown conduit should have zero sharing")
	}
}

func TestOccupies(t *testing.T) {
	m := testMap(t)
	mx := Build(m, nil)
	if !mx.Occupies("Level 3", 0) || mx.Occupies("Cox", 0) {
		t.Error("occupancy wrong for conduit 0")
	}
	if !mx.Occupies("Cox", 3) || mx.Occupies("Level 3", 3) {
		t.Error("occupancy wrong for conduit 3")
	}
	if mx.Occupies("Nobody", 0) {
		t.Error("unknown ISP occupies nothing")
	}
}

func TestSharingCountsFigure6(t *testing.T) {
	m := testMap(t)
	mx := Build(m, nil)
	counts := mx.SharingCounts()
	// k=1: all 4 conduits; k=2: c0,c1; k=3: c0; k=4: none.
	want := []int{4, 2, 1, 0}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("counts[k=%d] = %d, want %d", i+1, counts[i], w)
		}
	}
	// Monotone non-increasing by construction.
	for i := 1; i < len(counts); i++ {
		if counts[i] > counts[i-1] {
			t.Error("sharing counts must be non-increasing")
		}
	}
}

func TestSharedAtLeastAndTopShared(t *testing.T) {
	m := testMap(t)
	mx := Build(m, nil)
	ge2 := mx.SharedAtLeast(2)
	if len(ge2) != 2 || ge2[0] != 0 || ge2[1] != 1 {
		t.Errorf("SharedAtLeast(2) = %v", ge2)
	}
	top := mx.TopShared(3)
	if len(top) != 3 || top[0] != 0 {
		t.Errorf("TopShared = %v", top)
	}
	if got := mx.TopShared(100); len(got) != 4 {
		t.Errorf("TopShared(100) = %v", got)
	}
}

func TestRankingFigure7(t *testing.T) {
	m := testMap(t)
	mx := Build(m, nil)
	ranking := mx.Ranking()
	if len(ranking) != 4 {
		t.Fatalf("ranking = %v", ranking)
	}
	// Cox only uses its private conduit: mean sharing 1, least risk.
	if ranking[0].ISP != "Cox" || ranking[0].Mean != 1 {
		t.Errorf("least exposed = %+v", ranking[0])
	}
	// AT&T only uses the 3-way conduit: mean sharing 3, most risk.
	last := ranking[len(ranking)-1]
	if last.ISP != "AT&T" || last.Mean != 3 {
		t.Errorf("most exposed = %+v", last)
	}
	// Level 3 spans sharing degrees {3,2,1}: mean 2.
	for _, r := range ranking {
		if r.ISP == "Level 3" {
			if math.Abs(r.Mean-2) > 1e-9 {
				t.Errorf("Level 3 mean = %v", r.Mean)
			}
			if r.Conduits != 3 || r.SharedConduits != 2 {
				t.Errorf("Level 3 conduits = %d shared = %d", r.Conduits, r.SharedConduits)
			}
			if r.P25 >= r.P75 {
				t.Errorf("quartiles inverted: %v %v", r.P25, r.P75)
			}
			if r.StdErr <= 0 {
				t.Errorf("stderr = %v", r.StdErr)
			}
		}
	}
	// Sorted ascending by mean.
	for i := 1; i < len(ranking); i++ {
		if ranking[i].Mean < ranking[i-1].Mean {
			t.Error("ranking not sorted")
		}
	}
}

func TestHammingFigure8(t *testing.T) {
	m := testMap(t)
	mx := Build(m, nil)
	h := mx.Hamming()
	idx := map[string]int{}
	for i, isp := range mx.ISPs {
		idx[isp] = i
	}
	// Level 3 = {c0,c1,c2}, Sprint = {c0,c1}: differ only in c2.
	if d := h[idx["Level 3"]][idx["Sprint"]]; d != 1 {
		t.Errorf("L3-Sprint = %d, want 1", d)
	}
	// Sprint = {c0,c1}, Cox = {c3}: differ in 3 columns.
	if d := h[idx["Sprint"]][idx["Cox"]]; d != 3 {
		t.Errorf("Sprint-Cox = %d, want 3", d)
	}
	// Symmetric with zero diagonal.
	for i := range h {
		if h[i][i] != 0 {
			t.Error("diagonal must be zero")
		}
		for j := range h {
			if h[i][j] != h[j][i] {
				t.Error("must be symmetric")
			}
		}
	}
}

func TestMeanSharing(t *testing.T) {
	m := testMap(t)
	mx := Build(m, nil)
	// (3+2+1+1)/4 = 1.75
	if got := mx.MeanSharing(); math.Abs(got-1.75) > 1e-9 {
		t.Errorf("mean sharing = %v", got)
	}
}

func TestBuildWithSubset(t *testing.T) {
	m := testMap(t)
	mx := Build(m, []string{"Level 3", "Sprint"})
	// Only conduits occupied by the subset are columns; Cox's private
	// conduit is excluded.
	if len(mx.Conduits) != 3 {
		t.Errorf("conduits = %v", mx.Conduits)
	}
	// Sharing counts only count subset members.
	if mx.Sharing(0) != 2 {
		t.Errorf("subset sharing(0) = %d, want 2", mx.Sharing(0))
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := fiber.NewMap()
	mx := Build(m, nil)
	if mx.MeanSharing() != 0 {
		t.Error("empty matrix mean should be 0")
	}
	if len(mx.SharingCounts()) != 0 {
		t.Error("no ISPs, no counts")
	}
	if mx.Ranking() != nil && len(mx.Ranking()) != 0 {
		t.Error("empty ranking expected")
	}
}

// TestQuantile checks the sorted-copy reference quantile and the
// count-based quantile Ranking uses on the same values.
func TestQuantile(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	if q := quantile(vals, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := quantile(vals, 1); q != 4 {
		t.Errorf("q1 = %v", q)
	}
	if q := quantile(vals, 0.5); math.Abs(q-2.5) > 1e-9 {
		t.Errorf("median = %v", q)
	}
	if q := quantile([]float64{7}, 0.5); q != 7 {
		t.Errorf("single = %v", q)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	count := []int{0, 1, 1, 1, 1} // the values 1, 2, 3, 4
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got, want := countQuantile(count, 4, q), quantile(vals, q); got != want {
			t.Errorf("countQuantile(%v) = %v, want %v", q, got, want)
		}
	}
	if q := countQuantile([]int{0, 0, 0, 0, 0, 0, 0, 1}, 1, 0.5); q != 7 {
		t.Errorf("single = %v", q)
	}
}

// TestRankingMatchesSortedReference compares Ranking, field for field
// and bit for bit, with the sorted-copy computation it replaced, on
// random matrices whose first three ISPs hold 0, 1 and 2 conduits.
func TestRankingMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 200; trial++ {
		nISP, nCol := 3+rng.IntN(20), 1+rng.IntN(80)
		mx := &Matrix{present: make([][]bool, nISP), sharing: make([]int, nCol)}
		for i := 0; i < nISP; i++ {
			mx.ISPs = append(mx.ISPs, fmt.Sprintf("isp%d", i))
			mx.present[i] = make([]bool, nCol)
			for j := range mx.present[i] {
				switch {
				case i == 0:
				case i <= 2:
					mx.present[i][j] = j < i
				default:
					mx.present[i][j] = rng.Float64() < 0.4
				}
			}
		}
		for j := 0; j < nCol; j++ {
			mx.Conduits = append(mx.Conduits, fiber.ConduitID(j))
			for i := range mx.ISPs {
				if mx.present[i][j] {
					mx.sharing[j]++
				}
			}
		}
		got, want := mx.Ranking(), rankingReference(mx)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d row %d: %+v, want %+v", trial, k, got[k], want[k])
			}
		}
	}
}

// rankingReference is Ranking as it was before the per-degree counts:
// it collects and sorts each ISP's sharing values.
func rankingReference(mx *Matrix) []ISPRisk {
	out := make([]ISPRisk, 0, len(mx.ISPs))
	for i, isp := range mx.ISPs {
		var vals []float64
		shared := 0
		for j := range mx.Conduits {
			if !mx.present[i][j] {
				continue
			}
			vals = append(vals, float64(mx.sharing[j]))
			if mx.sharing[j] >= 2 {
				shared++
			}
		}
		r := ISPRisk{ISP: isp, Conduits: len(vals), SharedConduits: shared}
		if len(vals) > 0 {
			var sum float64
			for _, v := range vals {
				sum += v
			}
			r.Mean = sum / float64(len(vals))
			var ss float64
			for _, v := range vals {
				ss += (v - r.Mean) * (v - r.Mean)
			}
			if len(vals) > 1 {
				r.StdErr = math.Sqrt(ss/float64(len(vals)-1)) / math.Sqrt(float64(len(vals)))
			}
			sort.Float64s(vals)
			r.P25 = quantile(vals, 0.25)
			r.P75 = quantile(vals, 0.75)
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Mean < out[b].Mean })
	return out
}

// quantile returns the q-quantile of sorted vals by linear
// interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
