package traceroute

import "intertubes/internal/fiber"

// tally.go holds the overlay's counters while traces are attributed:
// flat arrays indexed by conduit id and decoder provider index
// (domainTable), so counting an attribution is two increments and no
// map update. fold adds a tally into a Campaign's maps: each campaign
// worker's at the end of Run, and one per OverlayParsed call. Every
// count is a sum, so the order of the folds never shows.

// tally is the dense form of the Campaign aggregates. A provider's
// inferred tenancy of a conduit is exactly a nonzero probe count, so
// the tenancy set needs no storage of its own.
type tally struct {
	conduits int
	probes   []DirCounts // [cid]
	isp      []int64     // [isp*conduits+cid]

	unattributed, checked, correct int64
}

func newTally(conduits int) *tally {
	return &tally{
		conduits: conduits,
		probes:   make([]DirCounts, conduits),
		isp:      make([]int64, len(domains.isps)*conduits),
	}
}

// add counts one attribution of a trace running in the given
// direction.
func (t *tally) add(westEast bool, cid, isp int, correct bool) {
	if westEast {
		t.probes[cid].WestEast++
	} else {
		t.probes[cid].EastWest++
	}
	t.isp[isp*t.conduits+cid]++
	t.checked++
	if correct {
		t.correct++
	}
}

// fold adds the tally into c's counters and maps, creating a map entry
// only for a nonzero count — the entries per-attribution updates would
// have created.
func (t *tally) fold(c *Campaign) {
	c.Unattributed += t.unattributed
	c.AttributionChecked += t.checked
	c.AttributionCorrect += t.correct
	for cid, d := range t.probes {
		if d.Total() == 0 {
			continue
		}
		dc := c.ConduitProbes[fiber.ConduitID(cid)]
		if dc == nil {
			dc = &DirCounts{}
			c.ConduitProbes[fiber.ConduitID(cid)] = dc
		}
		dc.WestEast += d.WestEast
		dc.EastWest += d.EastWest
	}
	for isp, name := range domains.isps {
		for cid, n := range t.isp[isp*t.conduits : (isp+1)*t.conduits] {
			if n == 0 {
				continue
			}
			byISP := c.ISPConduits[name]
			if byISP == nil {
				byISP = make(map[fiber.ConduitID]int64)
				c.ISPConduits[name] = byISP
			}
			byISP[fiber.ConduitID(cid)] += n
			tenants := c.InferredTenants[fiber.ConduitID(cid)]
			if tenants == nil {
				tenants = make(map[string]bool)
				c.InferredTenants[fiber.ConduitID(cid)] = tenants
			}
			tenants[name] = true
		}
	}
}
