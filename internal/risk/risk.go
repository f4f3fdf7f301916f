// Package risk implements §4 of the paper: the risk matrix over
// (ISP × conduit) and the metrics built on it — conduit sharing counts
// (Figure 6), per-ISP average shared risk with percentiles (Figure 7),
// and Hamming-distance similarity of ISP risk profiles (Figure 8).
package risk

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"intertubes/internal/fiber"
)

// Matrix is the paper's risk matrix: rows are ISPs, columns are
// conduits, and an entry is the number of ISPs sharing that conduit if
// the row ISP occupies it, zero otherwise.
type Matrix struct {
	ISPs     []string
	Conduits []fiber.ConduitID
	// present[i][j] reports whether ISP i occupies conduit j.
	present [][]bool
	// sharing[j] is the number of matrix ISPs occupying conduit j.
	sharing []int
	colOf   map[fiber.ConduitID]int
}

// Build constructs the risk matrix for the given ISPs over every
// conduit at least one of them occupies. Passing nil ISPs uses all
// published tenants in the map.
func Build(m *fiber.Map, isps []string) *Matrix {
	if isps == nil {
		isps = m.ISPs()
	}
	return BuildFrom(m, isps)
}

// BuildFrom constructs the risk matrix over any fiber.View — the
// baseline map itself or a scenario overlay — for the given ISPs.
// Conduit iteration runs in ascending id order, so the matrix built
// from an overlay is identical (columns, sharing counts, presence) to
// one built from the equivalent materialized map.
func BuildFrom(v fiber.View, isps []string) *Matrix {
	mx := &Matrix{ISPs: isps, colOf: make(map[fiber.ConduitID]int)}
	ispSet := make(map[string]int, len(isps))
	for i, isp := range isps {
		ispSet[isp] = i
	}
	// Columns: conduits occupied by at least one matrix ISP, in id
	// order.
	nc := v.NumConduits()
	for cid := fiber.ConduitID(0); int(cid) < nc; cid++ {
		n := 0
		for _, t := range v.Tenants(cid) {
			if _, ok := ispSet[t]; ok {
				n++
			}
		}
		if n == 0 {
			continue
		}
		mx.colOf[cid] = len(mx.Conduits)
		mx.Conduits = append(mx.Conduits, cid)
		mx.sharing = append(mx.sharing, n)
	}
	mx.present = make([][]bool, len(isps))
	for i := range mx.present {
		mx.present[i] = make([]bool, len(mx.Conduits))
	}
	for j, cid := range mx.Conduits {
		for _, t := range v.Tenants(cid) {
			if i, ok := ispSet[t]; ok {
				mx.present[i][j] = true
			}
		}
	}
	return mx
}

// Sharing returns the number of matrix ISPs occupying the conduit
// (zero if the conduit is not a matrix column).
func (mx *Matrix) Sharing(cid fiber.ConduitID) int {
	if j, ok := mx.colOf[cid]; ok {
		return mx.sharing[j]
	}
	return 0
}

// SharingCounts returns, for k = 1..len(ISPs), the number of conduits
// shared by at least k matrix ISPs — the y-values of Figure 6.
// Index 0 corresponds to k=1.
func (mx *Matrix) SharingCounts() []int {
	out := make([]int, len(mx.ISPs))
	for _, n := range mx.sharing {
		for k := 1; k <= n && k <= len(out); k++ {
			out[k-1]++
		}
	}
	return out
}

// SharedAtLeast returns the conduits shared by at least k matrix ISPs,
// most-shared first (ties by conduit id).
func (mx *Matrix) SharedAtLeast(k int) []fiber.ConduitID {
	type pair struct {
		cid fiber.ConduitID
		n   int
	}
	var ps []pair
	for j, cid := range mx.Conduits {
		if mx.sharing[j] >= k {
			ps = append(ps, pair{cid: cid, n: mx.sharing[j]})
		}
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].n != ps[j].n {
			return ps[i].n > ps[j].n
		}
		return ps[i].cid < ps[j].cid
	})
	out := make([]fiber.ConduitID, len(ps))
	for i, p := range ps {
		out[i] = p.cid
	}
	return out
}

// TopShared returns the n most-shared conduits (the paper's "12 out of
// 542 conduits shared by more than 17 ISPs" target set).
func (mx *Matrix) TopShared(n int) []fiber.ConduitID {
	all := mx.SharedAtLeast(1)
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// ISPRisk is one bar of Figure 7: the distribution of sharing degrees
// over an ISP's conduits.
type ISPRisk struct {
	ISP      string
	Conduits int
	// Mean is the average number of matrix ISPs sharing the conduits
	// this ISP uses (including itself).
	Mean float64
	// StdErr is the standard error of that mean.
	StdErr float64
	// P25, P75 are the quartiles of the sharing distribution.
	P25, P75 float64
	// SharedConduits counts this ISP's conduits occupied by at least
	// one other matrix ISP (the "raw number of shared conduits").
	SharedConduits int
}

// Ranking computes Figure 7: per-ISP average shared risk, sorted by
// increasing mean (the paper plots ISPs from least to most exposed).
// A sharing degree is an integer in 1..len(ISPs), so the quartiles
// are read off a count per degree instead of a sorted copy; the mean
// and the squared deviations are summed in column order.
func (mx *Matrix) Ranking() []ISPRisk {
	out := make([]ISPRisk, 0, len(mx.ISPs))
	count := make([]int, len(mx.ISPs)+1) // count[k]: the ISP's conduits of degree k
	for i, isp := range mx.ISPs {
		clear(count)
		var sum float64
		n, shared := 0, 0
		for j, present := range mx.present[i] {
			if !present {
				continue
			}
			k := mx.sharing[j]
			count[k]++
			sum += float64(k)
			n++
			if k >= 2 {
				shared++
			}
		}
		r := ISPRisk{ISP: isp, Conduits: n, SharedConduits: shared}
		if n > 0 {
			r.Mean = sum / float64(n)
			var ss float64
			for j, present := range mx.present[i] {
				if present {
					d := float64(mx.sharing[j]) - r.Mean
					ss += d * d
				}
			}
			if n > 1 {
				r.StdErr = math.Sqrt(ss/float64(n-1)) / math.Sqrt(float64(n))
			}
			r.P25 = countQuantile(count, n, 0.25)
			r.P75 = countQuantile(count, n, 0.75)
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Mean < out[b].Mean })
	return out
}

// Tables are the integer tables of a baseline matrix that Perturb
// derives a perturbed matrix's Figure 6 and 7 values from: per
// conduit id, the matrix rows present on it (so its sharing count);
// per row, the sum of sharing counts over its conduits and its conduit
// count; and the histogram of sharing counts. Build them once per
// matrix with Tables; they are read-only after.
type Tables struct {
	mx  *Matrix
	row map[string]int32
	// rows[start[c]:start[c+1]] are the rows present on conduit c, for
	// every id up to the matrix's largest column.
	start []int32
	rows  []int32
	sum   []int
	count []int
	// hist[k] counts the columns shared by exactly k matrix providers.
	hist []int
}

// Tables builds the matrix's integer tables.
func (mx *Matrix) Tables() *Tables {
	n := len(mx.ISPs)
	t := &Tables{
		mx:    mx,
		row:   make(map[string]int32, n),
		sum:   make([]int, n),
		count: make([]int, n),
		hist:  make([]int, n+1),
	}
	for i, isp := range mx.ISPs {
		t.row[isp] = int32(i)
	}
	nc := 0
	if len(mx.Conduits) > 0 {
		nc = int(mx.Conduits[len(mx.Conduits)-1]) + 1
	}
	t.start = make([]int32, nc+1)
	for j, cid := range mx.Conduits {
		k := mx.sharing[j]
		t.start[cid+1] = int32(k)
		t.hist[k]++
		for i := range mx.ISPs {
			if mx.present[i][j] {
				t.rows = append(t.rows, int32(i))
				t.sum[i] += k
				t.count[i]++
			}
		}
	}
	for c := 0; c < nc; c++ {
		t.start[c+1] += t.start[c]
	}
	return t
}

// MeanRisk is one provider's place in Figure 7: its mean shared risk,
// Ranking's ISPRisk.Mean.
type MeanRisk struct {
	ISP  string
	Mean float64
}

// Perturbed is a perturbed matrix as far as Figures 6 and 7 read it.
type Perturbed struct {
	// SharingCounts is the perturbed matrix's SharingCounts.
	SharingCounts []int
	// Ranking is the perturbed matrix's Ranking, order and Mean.
	Ranking []MeanRisk
}

// Perturb returns Figures 6 and 7 of BuildFrom(v, kept) from the
// baseline tables plus the conduits touched, ascending, the only ones
// on which v's tenancy may differ from the map the matrix was built
// on. kept are distinct matrix providers, and every conduit a matrix
// provider outside kept occupies must be touched. Each touched conduit
// gives back its baseline contribution and adds its tenancy in v over
// the kept providers; every sum is an integer, so each mean is the
// float Ranking computes by summing columns in order, and the stable
// sort by mean leaves the ranking in Ranking's order.
func (t *Tables) Perturb(v fiber.View, touched []fiber.ConduitID, kept []string) Perturbed {
	n := len(t.mx.ISPs)
	sum := append([]int(nil), t.sum...)
	count := append([]int(nil), t.count...)
	hist := append([]int(nil), t.hist...)
	in := make([]bool, n)
	for _, isp := range kept {
		r, ok := t.row[isp]
		if !ok {
			panic("risk: Perturb: " + isp + " is not a matrix provider")
		}
		in[r] = true
	}
	var on []int32 // the kept rows present on one touched conduit
	for _, cid := range touched {
		if int(cid) < len(t.start)-1 {
			rows := t.rows[t.start[cid]:t.start[cid+1]]
			k := len(rows)
			hist[k]--
			for _, r := range rows {
				sum[r] -= k
				count[r]--
			}
		}
		on = on[:0]
		for _, isp := range v.Tenants(cid) {
			if r, ok := t.row[isp]; ok && in[r] {
				on = append(on, r)
			}
		}
		k := len(on)
		hist[k]++
		for _, r := range on {
			sum[r] += k
			count[r]++
		}
	}
	for r, c := range count {
		if !in[r] && c != 0 {
			panic("risk: Perturb: a conduit of dropped provider " + t.mx.ISPs[r] + " is not touched")
		}
	}

	p := Perturbed{SharingCounts: make([]int, len(kept)), Ranking: make([]MeanRisk, len(kept))}
	atLeast := 0
	for k := n; k >= 1; k-- {
		atLeast += hist[k]
		if k <= len(kept) {
			p.SharingCounts[k-1] = atLeast
		}
	}
	for i, isp := range kept {
		r := t.row[isp]
		p.Ranking[i].ISP = isp
		if count[r] > 0 {
			p.Ranking[i].Mean = float64(sum[r]) / float64(count[r])
		}
	}
	slices.SortStableFunc(p.Ranking, func(a, b MeanRisk) int { return cmp.Compare(a.Mean, b.Mean) })
	return p
}

// countQuantile returns the q-quantile, by linear interpolation, of
// the n values that count tallies (count[k] copies of k): the value
// quantile would return for them sorted. n must be positive.
func countQuantile(count []int, n int, q float64) float64 {
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	vlo, vhi := nth(count, lo), nth(count, hi)
	if lo == hi {
		return vlo
	}
	frac := pos - float64(lo)
	return vlo*(1-frac) + vhi*frac
}

// nth returns the value at index i of the sorted values count tallies.
func nth(count []int, i int) float64 {
	for k, c := range count {
		if i < c {
			return float64(k)
		}
		i -= c
	}
	panic("risk: quantile index out of range")
}

// Hamming returns the pairwise Hamming distances between ISP presence
// vectors — Figure 8's heat map. Smaller distance means more similar
// risk profiles.
func (mx *Matrix) Hamming() [][]int {
	n := len(mx.ISPs)
	out := make([][]int, n)
	for i := range out {
		out[i] = make([]int, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := 0
			for c := range mx.Conduits {
				if mx.present[i][c] != mx.present[j][c] {
					d++
				}
			}
			out[i][j], out[j][i] = d, d
		}
	}
	return out
}

// MeanSharing returns the average sharing degree across all matrix
// conduits (used as the global shared-risk scalar in §5 comparisons).
func (mx *Matrix) MeanSharing() float64 {
	if len(mx.sharing) == 0 {
		return 0
	}
	sum := 0
	for _, n := range mx.sharing {
		sum += n
	}
	return float64(sum) / float64(len(mx.sharing))
}
