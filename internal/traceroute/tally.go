package traceroute

import "intertubes/internal/fiber"

// tally.go holds the overlay's counters while traces are reduced:
// flat arrays indexed by conduit id and decoder provider index
// (domainTable), so counting an attribution is two increments and no
// map update. fold publishes a tally into a Campaign's maps — once at
// the end of Run, and once per OverlayParsed call, which adds to what
// the maps already hold.

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

// add counts one trace: its attributions in the direction the trace
// runs, and the hop pairs the overlay could not attribute.
func (t *tally) add(westEast bool, attrs []segAttr, misses int) {
	t.unattributed += int64(misses)
	t.checked += int64(len(attrs))
	for _, at := range attrs {
		if westEast {
			t.probes[at.cid].WestEast++
		} else {
			t.probes[at.cid].EastWest++
		}
		t.isp[int(at.isp)*t.conduits+int(at.cid)]++
		if at.correct {
			t.correct++
		}
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
