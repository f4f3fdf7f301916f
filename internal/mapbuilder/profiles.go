package mapbuilder

// profiles.go declares the provider universe of the study: the nine
// step-1 providers whose published maps carry explicit geocoding, the
// eleven step-3 providers that publish only POP-level connectivity
// (paper §2.3), and a handful of providers with no published map at
// all, which the paper only observed through traceroute naming hints
// (§4.3, Table 4 — SoftLayer, MFN).
//
// POPTarget values are calibrated so the relative footprint sizes
// match the paper's Table 1 (EarthLink and Level 3 near-national,
// AT&T's and Comcast's published long-haul maps small, Integra
// regional in the northwest, Suddenlink in the south-central states).

// Tier classifies a provider.
type Tier int

const (
	// Tier1 is a transit-free backbone carrier.
	Tier1 Tier = iota
	// Cable is a major cable provider.
	Cable
	// Regional is a regional fiber operator.
	Regional
	// Unmapped providers publish no usable map; they appear only as
	// hidden conduit tenants and in traceroute data.
	Unmapped
)

// Profile drives the synthetic footprint generator for one provider.
type Profile struct {
	Name string
	Tier Tier
	// Geocoded providers enter the map in step 1 with full link
	// geometry; non-geocoded mapped providers enter in step 3 from
	// POP-only maps; Unmapped providers never enter the published map.
	Geocoded bool
	// POPTarget is the number of cities the provider's backbone
	// serves.
	POPTarget int
	// Redundancy in [0,1] controls how many extra (ring) routes are
	// added beyond the minimum spanning structure.
	Redundancy float64
	// JitterAmp controls how far the provider's route costs deviate
	// from the industry-shared corridor costs: 0 means it always buys
	// into the cheapest (most-shared) trench; larger values model
	// providers that deployed geographically diverse paths.
	JitterAmp float64
	// PopExponent shapes POP selection: city score ~ population^exp.
	// The default 1.0 favors big metros; values well below 1 model
	// operators that served smaller markets (Suddenlink).
	PopExponent float64
	// BiasStates concentrates POP selection in the listed states
	// (multiplier applied to city scores).
	BiasStates []string
	// BiasWeight is the score multiplier for BiasStates (default 1).
	BiasWeight float64
}

// Mapped reports whether the provider contributes to the published
// map (steps 1-4) rather than being traceroute-only.
func (p Profile) Mapped() bool { return p.Tier != Unmapped }

// Profiles returns the full provider universe in the order the paper
// introduces them.
func Profiles() []Profile {
	return []Profile{
		// Step 1: geocoded fiber maps (paper Table 1).
		{Name: "AT&T", Tier: Tier1, Geocoded: true, POPTarget: 12, Redundancy: 0.30, JitterAmp: 0.30},
		{Name: "Comcast", Tier: Cable, Geocoded: true, POPTarget: 13, Redundancy: 0.30, JitterAmp: 0.30},
		{Name: "Cogent", Tier: Tier1, Geocoded: true, POPTarget: 22, Redundancy: 0.25, JitterAmp: 0.40},
		{Name: "EarthLink", Tier: Tier1, Geocoded: true, POPTarget: 80, Redundancy: 0.35, JitterAmp: 0.45},
		{Name: "Integra", Tier: Regional, Geocoded: true, POPTarget: 11, Redundancy: 0.30, JitterAmp: 0.35,
			BiasStates: []string{"WA", "OR", "ID", "MT", "UT", "CO", "NV", "CA", "AZ"}, BiasWeight: 25},
		{Name: "Level 3", Tier: Tier1, Geocoded: true, POPTarget: 78, Redundancy: 0.40, JitterAmp: 0.45},
		{Name: "Suddenlink", Tier: Cable, Geocoded: true, POPTarget: 15, Redundancy: 0.15, JitterAmp: 0.55,
			PopExponent: 0.45,
			BiasStates:  []string{"TX", "LA", "AR", "OK", "MO", "MS", "WV", "NC", "AZ"}, BiasWeight: 30},
		{Name: "Verizon", Tier: Tier1, Geocoded: true, POPTarget: 32, Redundancy: 0.30, JitterAmp: 0.45},
		{Name: "Zayo", Tier: Tier1, Geocoded: true, POPTarget: 28, Redundancy: 0.35, JitterAmp: 0.45},

		// Step 3: POP-only published maps (paper §2.3).
		{Name: "CenturyLink", Tier: Tier1, Geocoded: false, POPTarget: 30, Redundancy: 0.30, JitterAmp: 0.45},
		{Name: "Cox", Tier: Cable, Geocoded: false, POPTarget: 14, Redundancy: 0.25, JitterAmp: 0.35,
			BiasStates: []string{"VA", "AZ", "CA", "GA", "LA", "OK", "KS", "NV", "FL", "RI", "CT"}, BiasWeight: 18},
		{Name: "Deutsche Telekom", Tier: Tier1, Geocoded: false, POPTarget: 8, Redundancy: 0.10, JitterAmp: 0.04},
		{Name: "HE", Tier: Tier1, Geocoded: false, POPTarget: 11, Redundancy: 0.20, JitterAmp: 0.08},
		{Name: "Inteliquent", Tier: Tier1, Geocoded: false, POPTarget: 8, Redundancy: 0.10, JitterAmp: 0.04},
		{Name: "NTT", Tier: Tier1, Geocoded: false, POPTarget: 9, Redundancy: 0.10, JitterAmp: 0.04},
		{Name: "Sprint", Tier: Tier1, Geocoded: false, POPTarget: 20, Redundancy: 0.30, JitterAmp: 0.35},
		{Name: "Tata", Tier: Tier1, Geocoded: false, POPTarget: 8, Redundancy: 0.10, JitterAmp: 0.05},
		{Name: "TeliaSonera", Tier: Tier1, Geocoded: false, POPTarget: 8, Redundancy: 0.10, JitterAmp: 0.05},
		{Name: "TWC", Tier: Cable, Geocoded: false, POPTarget: 15, Redundancy: 0.25, JitterAmp: 0.35,
			BiasStates: []string{"NY", "OH", "NC", "SC", "TX", "CA", "WI", "MO", "KY", "ME"}, BiasWeight: 15},
		{Name: "XO", Tier: Tier1, Geocoded: false, POPTarget: 15, Redundancy: 0.20, JitterAmp: 0.08},

		// Traceroute-only providers (paper Table 4: SoftLayer, MFN).
		{Name: "SoftLayer", Tier: Unmapped, POPTarget: 12, Redundancy: 0.20, JitterAmp: 0.20},
		{Name: "MFN", Tier: Unmapped, POPTarget: 9, Redundancy: 0.15, JitterAmp: 0.20},
		{Name: "GTT", Tier: Unmapped, POPTarget: 8, Redundancy: 0.15, JitterAmp: 0.20},
		{Name: "Windstream", Tier: Unmapped, POPTarget: 14, Redundancy: 0.20, JitterAmp: 0.35,
			BiasStates: []string{"AR", "GA", "KY", "NE", "NC", "OH", "OK", "SC", "TX"}, BiasWeight: 12},
	}
}

// MappedNames returns the names of the 20 providers in the published
// map, in profile order.
func MappedNames() []string {
	var out []string
	for _, p := range Profiles() {
		if p.Mapped() {
			out = append(out, p.Name)
		}
	}
	return out
}
