// Package scenario is the what-if engine over a completed study: a
// Scenario value declaratively composes perturbations of the baseline
// long-haul map — conduit cuts (explicit, most-shared, most-between,
// or regional disasters), provider removal, new conduit builds, and
// option overrides — and evaluates into a Result carrying deltas
// against the baseline: sharing distribution, risk-ranking shifts,
// per-ISP disconnection, partition cost, and (optionally) latency and
// traffic impact.
//
// Scenarios canonicalize to a stable content hash, which is the key
// of the serving layer: Cache (bounded LRU with singleflight dedup,
// so N identical concurrent queries cost one evaluation) and Sweep (a
// deterministic batch runner on internal/par with the same
// bit-identical-at-any-worker-count contract as the other hot paths).
//
// This is the paper's closing future work ("analyze different
// dimensions of network resilience") turned into a query language:
// §5's mitigation frameworks and the resilience analyses become
// special cases of one declarative spec.
package scenario

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"

	"intertubes/internal/fiber"
)

// Region is a circular disaster footprint: every tenanted conduit
// whose route enters the circle is cut.
type Region struct {
	Lat      float64 `json:"lat"`
	Lon      float64 `json:"lon"`
	RadiusKm float64 `json:"radiusKm"`
}

// Addition is one new conduit build: a straight-line conduit between
// two map nodes ("City,ST" keys). Tenants are the providers that
// light it; an empty list means open access — every baseline provider
// may use it (the §5.2 framing, where any ISP re-routes over a new
// conduit).
type Addition struct {
	A       string   `json:"a"`
	B       string   `json:"b"`
	Tenants []string `json:"tenants,omitempty"`
}

// Overrides adjusts evaluation knobs that have a baseline default.
// Unlike Workers (a pure speed knob, deliberately absent here), these
// change what is computed, so they are part of the scenario hash.
type Overrides struct {
	// Probes overrides the traceroute campaign size used when
	// IncludeTraffic is set; at most MaxProbes.
	Probes int `json:"probes,omitempty"`
	// LatencyMaxPairs overrides the latency-study pair cap used when
	// IncludeLatency is set.
	LatencyMaxPairs int `json:"latencyMaxPairs,omitempty"`
}

// Scenario is one declarative what-if query. The zero value is the
// null scenario (no perturbation). Fields compose: the evaluated cut
// set is the union of CutConduits, the CutMostShared most-shared
// conduits, the CutMostBetween highest-betweenness conduits, and
// every tenanted conduit inside any Region.
type Scenario struct {
	// Name labels the scenario in listings and reports. It does not
	// enter the content hash.
	Name string `json:"name,omitempty"`
	// Preset names a predefined scenario to start from; the remaining
	// fields compose on top of it. Resolve expands it.
	Preset string `json:"preset,omitempty"`

	CutConduits    []fiber.ConduitID `json:"cutConduits,omitempty"`
	CutMostShared  int               `json:"cutMostShared,omitempty"`
	CutMostBetween int               `json:"cutMostBetween,omitempty"`
	Regions        []Region          `json:"regions,omitempty"`
	RemoveISPs     []string          `json:"removeISPs,omitempty"`
	Additions      []Addition        `json:"add,omitempty"`

	// IncludeLatency adds the §5.3 latency study (best/ROW/LOS deltas)
	// to the result; IncludeTraffic adds a traceroute campaign overlay
	// (sharing under traffic). Both cost real evaluation time.
	IncludeLatency bool `json:"includeLatency,omitempty"`
	IncludeTraffic bool `json:"includeTraffic,omitempty"`

	Overrides Overrides `json:"overrides,omitempty"`
}

// Resolve expands the Preset (if any) and returns the canonical form
// of the scenario. It fails on an unknown preset or an invalid field.
func Resolve(sc Scenario) (Scenario, error) {
	if sc.Preset != "" {
		base, ok := Preset(sc.Preset)
		if !ok {
			return Scenario{}, fmt.Errorf("scenario: unknown preset %q", sc.Preset)
		}
		sc = merge(base, sc)
	}
	if err := validate(sc); err != nil {
		return Scenario{}, err
	}
	return canonical(sc), nil
}

// merge composes an explicit request on top of a preset: list fields
// append, count fields take the maximum, booleans or, and non-zero
// overrides win.
func merge(base, req Scenario) Scenario {
	out := base
	out.Preset = req.Preset
	if req.Name != "" {
		out.Name = req.Name
	}
	out.CutConduits = append(out.CutConduits, req.CutConduits...)
	out.Regions = append(out.Regions, req.Regions...)
	out.RemoveISPs = append(out.RemoveISPs, req.RemoveISPs...)
	out.Additions = append(out.Additions, req.Additions...)
	if req.CutMostShared > out.CutMostShared {
		out.CutMostShared = req.CutMostShared
	}
	if req.CutMostBetween > out.CutMostBetween {
		out.CutMostBetween = req.CutMostBetween
	}
	out.IncludeLatency = out.IncludeLatency || req.IncludeLatency
	out.IncludeTraffic = out.IncludeTraffic || req.IncludeTraffic
	if req.Overrides.Probes != 0 {
		out.Overrides.Probes = req.Overrides.Probes
	}
	if req.Overrides.LatencyMaxPairs != 0 {
		out.Overrides.LatencyMaxPairs = req.Overrides.LatencyMaxPairs
	}
	return out
}

// MaxProbes bounds Overrides.Probes at five times the study's default
// campaign: a campaign allocates every probe's decision up front.
const MaxProbes = 1_000_000

func validate(sc Scenario) error {
	if sc.CutMostShared < 0 || sc.CutMostBetween < 0 {
		return fmt.Errorf("scenario: negative cut count")
	}
	if sc.Overrides.Probes < 0 || sc.Overrides.LatencyMaxPairs < 0 {
		return fmt.Errorf("scenario: negative override")
	}
	if sc.Overrides.Probes > MaxProbes {
		return fmt.Errorf("scenario: probes override %d above the maximum %d", sc.Overrides.Probes, MaxProbes)
	}
	for _, cid := range sc.CutConduits {
		if cid < 0 {
			return fmt.Errorf("scenario: negative conduit id %d", cid)
		}
	}
	for _, r := range sc.Regions {
		if err := cmp.Or(finite("lat", r.Lat), finite("lon", r.Lon), finite("radiusKm", r.RadiusKm)); err != nil {
			return fmt.Errorf("scenario: region %w", err)
		}
		if r.RadiusKm <= 0 {
			return fmt.Errorf("scenario: region radius must be positive (got %g)", r.RadiusKm)
		}
		if r.Lat < -90 || r.Lat > 90 || r.Lon < -180 || r.Lon > 180 {
			return fmt.Errorf("scenario: region center (%g, %g) off the globe", r.Lat, r.Lon)
		}
	}
	for _, ad := range sc.Additions {
		if ad.A == "" || ad.B == "" || ad.A == ad.B {
			return fmt.Errorf("scenario: addition needs two distinct node keys (got %q - %q)", ad.A, ad.B)
		}
	}
	return nil
}

// finite rejects a field holding NaN or ±Inf, which the range tests
// let through: NaN compares false and +Inf is positive.
func finite(field string, x float64) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Errorf("%s must be finite (got %g)", field, x)
	}
	return nil
}

// canonical sorts and de-duplicates every list field so that
// logically equal scenarios serialize — and hash — identically.
func canonical(sc Scenario) Scenario {
	sc.Preset = "" // resolved
	sc.CutConduits = dedupeIDs(sc.CutConduits)
	sc.RemoveISPs = dedupeStrings(sc.RemoveISPs)

	regions := append([]Region(nil), sc.Regions...)
	sort.Slice(regions, func(i, j int) bool {
		a, b := regions[i], regions[j]
		if a.Lat != b.Lat {
			return a.Lat < b.Lat
		}
		if a.Lon != b.Lon {
			return a.Lon < b.Lon
		}
		return a.RadiusKm < b.RadiusKm
	})
	sc.Regions = dedupeRegions(regions)

	adds := make([]Addition, 0, len(sc.Additions))
	for _, ad := range sc.Additions {
		if ad.A > ad.B {
			ad.A, ad.B = ad.B, ad.A
		}
		ad.Tenants = dedupeStrings(ad.Tenants)
		adds = append(adds, ad)
	}
	sort.Slice(adds, func(i, j int) bool {
		a, b := adds[i], adds[j]
		if a.A != b.A {
			return a.A < b.A
		}
		if a.B != b.B {
			return a.B < b.B
		}
		return strings.Join(a.Tenants, ",") < strings.Join(b.Tenants, ",")
	})
	sc.Additions = dedupeAdditions(adds)
	return sc
}

// Hash returns the stable content hash of the scenario's canonical
// form: equal perturbations hash equally no matter how they were
// spelled. Name never enters the hash; Workers is not a scenario
// field at all (the determinism contract makes it a pure speed knob).
func (sc Scenario) Hash() string {
	c := canonical(sc)
	var b strings.Builder
	b.WriteString("v1|cut=")
	for i, cid := range c.CutConduits {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", cid)
	}
	fmt.Fprintf(&b, "|shared=%d|between=%d|regions=", c.CutMostShared, c.CutMostBetween)
	for i, r := range c.Regions {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g/%g/%g", r.Lat, r.Lon, r.RadiusKm)
	}
	b.WriteString("|rm=")
	b.WriteString(strings.Join(c.RemoveISPs, ","))
	b.WriteString("|add=")
	for i, ad := range c.Additions {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%s~%s~%s", ad.A, ad.B, strings.Join(ad.Tenants, "+"))
	}
	fmt.Fprintf(&b, "|lat=%t|traffic=%t|probes=%d|maxpairs=%d",
		c.IncludeLatency, c.IncludeTraffic, c.Overrides.Probes, c.Overrides.LatencyMaxPairs)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

func dedupeIDs(ids []fiber.ConduitID) []fiber.ConduitID {
	if len(ids) == 0 {
		return nil
	}
	out := append([]fiber.ConduitID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

func dedupeStrings(xs []string) []string {
	if len(xs) == 0 {
		return nil
	}
	out := append([]string(nil), xs...)
	sort.Strings(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

func dedupeRegions(rs []Region) []Region {
	if len(rs) == 0 {
		return nil
	}
	w := 1
	for i := 1; i < len(rs); i++ {
		if rs[i] != rs[w-1] {
			rs[w] = rs[i]
			w++
		}
	}
	return rs[:w]
}

func dedupeAdditions(as []Addition) []Addition {
	if len(as) == 0 {
		return nil
	}
	eq := func(a, b Addition) bool {
		if a.A != b.A || a.B != b.B || len(a.Tenants) != len(b.Tenants) {
			return false
		}
		for i := range a.Tenants {
			if a.Tenants[i] != b.Tenants[i] {
				return false
			}
		}
		return true
	}
	w := 1
	for i := 1; i < len(as); i++ {
		if !eq(as[i], as[w-1]) {
			as[w] = as[i]
			w++
		}
	}
	return as[:w]
}
