package fiber

import (
	"fmt"
	"sort"

	"intertubes/internal/geo"
)

// overlay.go is the copy-on-write counterpart of clone.go: instead of
// deep-copying the whole map to perturb it, an Overlay records the
// delta — cut conduits, removed providers, new builds — and answers
// View queries by consulting the delta first and the shared immutable
// base otherwise. Construction cost is proportional to the
// perturbation, not the map, which is what makes thousands of what-if
// evaluations per sweep affordable.
//
// Semantics are pinned to the mutation path: an Overlay's Final view
// must answer every View query exactly as the map built by Clone +
// RemoveISP + EnsureConduit/AddTenant + ClearTenants (in that order)
// would. In particular additions are NOT filtered by removed providers
// (removal happens first, so an explicit addition can re-introduce a
// removed provider's tenancy), and cuts are applied last (they darken
// tenancies merged in by additions). The overlay test suite replays
// each delta through those primitives and diffs the two. Production
// code reads perturbed maps only through these views.

// OverlayAddition is one resolved new build: endpoints as node ids and
// an explicit, sorted tenant list (callers expand "open access" before
// constructing the overlay).
type OverlayAddition struct {
	A, B    NodeID
	Tenants []string
}

// Perturbation is the delta an Overlay applies to its base map.
type Perturbation struct {
	// Cuts are base conduit ids to darken (additions cannot be cut).
	Cuts []ConduitID
	// RemoveISPs lose every published tenancy.
	RemoveISPs []string
	// Additions are new builds, applied after removals in order.
	Additions []OverlayAddition
}

// Overlay is a copy-on-write perturbed view of a base map. The base
// is shared and never mutated; concurrent overlays over one base are
// safe. The zero value is not ready; use NewOverlay.
//
// An Overlay also names the conduits its Final view can disagree with
// the base map on (Touched): the cut conduits, the base conduits a
// removal or a merged addition rewrote, and the virtual builds. Every
// other conduit reads exactly as in the base map, so a per-conduit
// table of the base map stays valid outside that set, and a consumer
// can update it at the touched conduits alone.
type Overlay struct {
	base *Map

	cut []bool // len == len(base.Conduits)
	// touched marks the base conduits in the touched set: the cut ones
	// and the keys of effPlus. Tenants reads an unmarked conduit
	// straight from the base map.
	touched []bool
	removed map[string]bool // provider-removal set
	// effPlus overrides the plus-view tenant list for base conduits
	// affected by removals or merged additions. Cuts are not recorded
	// here: the Final view masks them at read time.
	effPlus map[ConduitID][]string
	// virtual conduits materialized by additions that merged with no
	// existing conduit; ids follow the base (len(base.Conduits)+i).
	virtual []Conduit
	// targets[i] is the conduit addition i landed on (base or virtual).
	targets []ConduitID
	// touchedList is the touched set in ascending id order: the marked
	// base conduits, then every virtual build.
	touchedList []ConduitID

	linksRemoved int
}

// NewOverlay builds the copy-on-write view of base under p. It fails
// on an addition whose endpoints coincide (mirroring EnsureConduit)
// or a cut id outside the base conduit range.
func NewOverlay(base *Map, p Perturbation) (*Overlay, error) {
	nb := len(base.Conduits)
	o := &Overlay{
		base:    base,
		cut:     make([]bool, nb),
		touched: make([]bool, nb),
		removed: make(map[string]bool, len(p.RemoveISPs)),
		effPlus: make(map[ConduitID][]string),
	}
	for _, cid := range p.Cuts {
		if cid < 0 || int(cid) >= nb {
			return nil, fmt.Errorf("fiber: overlay cut %d out of range (base has %d conduits)", cid, nb)
		}
		o.cut[cid] = true
		o.touched[cid] = true
	}

	// Removals first — the mutation path's order.
	for _, isp := range p.RemoveISPs {
		if o.removed[isp] {
			continue
		}
		o.removed[isp] = true
		cids := base.byTenant[isp]
		o.linksRemoved += len(cids)
		for _, cid := range cids {
			o.effPlus[cid] = removeSorted(o.effTenantsPlus(cid), isp)
			o.touched[cid] = true
		}
	}

	// Additions merge exactly like EnsureConduit: the first existing
	// conduit between the pair following no corridor (-1) wins; base
	// conduits are consulted before earlier virtual builds, matching
	// conduitsByPair's append order.
	virtByPair := make(map[pairKey][]int)
	for _, ad := range p.Additions {
		if ad.A == ad.B {
			return nil, fmt.Errorf("fiber: overlay addition endpoints equal (%d)", ad.A)
		}
		pk := mkPair(ad.A, ad.B)
		target := ConduitID(-1)
		for _, cid := range base.conduitsByPair[pk] {
			if base.Conduits[cid].Corridor == -1 {
				target = cid
				break
			}
		}
		if target < 0 {
			if vis := virtByPair[pk]; len(vis) > 0 {
				target = o.virtual[vis[0]].ID
			}
		}
		if target < 0 {
			path := geo.Polyline{base.Nodes[ad.A].Loc, base.Nodes[ad.B].Loc}
			target = ConduitID(len(base.Conduits) + len(o.virtual))
			o.virtual = append(o.virtual, Conduit{
				ID: target, A: ad.A, B: ad.B, Path: path,
				LengthKm: path.LengthKm(), Corridor: -1,
			})
			virtByPair[pk] = append(virtByPair[pk], len(o.virtual)-1)
		}
		o.targets = append(o.targets, target)
		if int(target) >= len(base.Conduits) {
			vc := &o.virtual[int(target)-len(base.Conduits)]
			for _, isp := range ad.Tenants {
				vc.Tenants, _ = insertSorted(vc.Tenants, isp)
			}
		} else {
			eff := o.effTenantsPlus(target)
			for _, isp := range ad.Tenants {
				eff, _ = insertSorted(eff, isp)
			}
			o.effPlus[target] = eff
			o.touched[target] = true
		}
	}

	for cid, t := range o.touched {
		if t {
			o.touchedList = append(o.touchedList, ConduitID(cid))
		}
	}
	for i := range o.virtual {
		o.touchedList = append(o.touchedList, o.virtual[i].ID)
	}
	return o, nil
}

// effTenantsPlus returns a mutable effective tenant slice for a base
// conduit in the plus view: the existing override, or a fresh copy of
// the base tenants.
func (o *Overlay) effTenantsPlus(cid ConduitID) []string {
	if eff, ok := o.effPlus[cid]; ok {
		return eff
	}
	return append([]string(nil), o.base.Conduits[cid].Tenants...)
}

// LinksRemoved returns the number of (ISP, conduit) links the
// provider-removal clause severed — what RemoveISP would have counted.
func (o *Overlay) LinksRemoved() int { return o.linksRemoved }

// Touched returns, in ascending id order, every conduit whose Final
// tenancy can differ from the base map's: the cut conduits, the base
// conduits a removal or a merged addition rewrote, and the virtual
// builds. Read-only.
func (o *Overlay) Touched() []ConduitID { return o.touchedList }

// CutMask returns the cut indicator indexed by base conduit id.
// Read-only; virtual conduits (ids at or beyond its length) are never
// cut.
func (o *Overlay) CutMask() []bool { return o.cut }

// AdditionTargets returns, per addition, the conduit it landed on
// (a base conduit when the build merged with an existing route, a
// virtual id otherwise). Read-only.
func (o *Overlay) AdditionTargets() []ConduitID { return o.targets }

// NumBaseConduits returns the base map's conduit count; view conduit
// ids at or beyond it are virtual.
func (o *Overlay) NumBaseConduits() int { return len(o.base.Conduits) }

// Plus is the view with removals and additions applied but cut
// conduits still lit — the topology connectivity analyses run on,
// where a severed node still counts against its provider's pair total
// and the cut set is excluded by weight instead.
func (o *Overlay) Plus() View { return overlayView{o: o, dark: false} }

// Final is the fully perturbed view: cuts darkened on top of Plus.
func (o *Overlay) Final() View { return overlayView{o: o, dark: true} }

// overlayView adapts an Overlay to the View interface; dark selects
// whether cut conduits read as tenantless.
type overlayView struct {
	o    *Overlay
	dark bool
}

func (v overlayView) NumNodes() int { return len(v.o.base.Nodes) }

func (v overlayView) NumConduits() int { return len(v.o.base.Conduits) + len(v.o.virtual) }

func (v overlayView) conduit(cid ConduitID) *Conduit {
	if nb := len(v.o.base.Conduits); int(cid) >= nb {
		return &v.o.virtual[int(cid)-nb]
	}
	return &v.o.base.Conduits[cid]
}

func (v overlayView) ConduitEnds(cid ConduitID) (NodeID, NodeID) {
	c := v.conduit(cid)
	return c.A, c.B
}

func (v overlayView) ConduitLengthKm(cid ConduitID) float64 { return v.conduit(cid).LengthKm }

func (v overlayView) Tenants(cid ConduitID) []string {
	o := v.o
	if nb := len(o.base.Conduits); int(cid) >= nb {
		return o.virtual[int(cid)-nb].Tenants
	}
	if !o.touched[cid] {
		return o.base.Conduits[cid].Tenants
	}
	if v.dark && o.cut[cid] {
		return nil
	}
	if eff, ok := o.effPlus[cid]; ok {
		return eff
	}
	return o.base.Conduits[cid].Tenants
}

func (v overlayView) HasTenant(cid ConduitID, isp string) bool {
	return containsSorted(v.Tenants(cid), isp)
}

func (v overlayView) NodesOf(isp string) []NodeID {
	seen := make(map[NodeID]struct{})
	nc := v.NumConduits()
	for cid := ConduitID(0); int(cid) < nc; cid++ {
		if !v.HasTenant(cid, isp) {
			continue
		}
		c := v.conduit(cid)
		seen[c.A] = struct{}{}
		seen[c.B] = struct{}{}
	}
	out := make([]NodeID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Stats computes the Figure 1 summary over the view's effective
// tenancy. The per-conduit accumulation runs in ascending conduit id
// order — virtuals after the base block — exactly like Map.Stats over
// the materialized map, so even the floating-point kilometre total is
// bit-identical to the mutation path's.
func (v overlayView) Stats() Stats {
	s := Stats{Nodes: len(v.o.base.Nodes), ISPs: v.ispCount()}
	nc := v.NumConduits()
	for cid := ConduitID(0); int(cid) < nc; cid++ {
		n := len(v.Tenants(cid))
		s.Links += n
		if n == 0 {
			continue
		}
		s.Conduits++
		s.TotalKm += v.ConduitLengthKm(cid)
		if n > s.MaxSharing {
			s.MaxSharing = n
		}
		if n >= 2 {
			s.SharedByGE2++
		}
		if n >= 3 {
			s.SharedByGE3++
		}
		if n >= 4 {
			s.SharedByGE4++
		}
		if n > 17 {
			s.SharedByGT17++
		}
	}
	if s.Conduits > 0 {
		s.AvgTenancy = float64(s.Links) / float64(s.Conduits)
	}
	return s
}

// ispCount counts providers with at least one effective tenancy — the
// view equivalent of len(byTenant) on a materialized map. An untouched
// conduit keeps its base tenants, so a base provider stays as soon as
// one of its conduits is untouched or still holds it, and a provider
// the base map lacks can only arrive on an addition's target.
func (v overlayView) ispCount() int {
	o := v.o
	count := 0
	for isp, cids := range o.base.byTenant {
		if v.keeps(isp, cids) {
			count++
		}
	}
	var arrived map[string]bool
	for _, cid := range o.targets {
		for _, isp := range v.Tenants(cid) {
			if len(o.base.byTenant[isp]) == 0 && !arrived[isp] {
				if arrived == nil {
					arrived = make(map[string]bool)
				}
				arrived[isp] = true
			}
		}
	}
	return count + len(arrived)
}

// keeps reports whether base provider isp, a tenant of the base
// conduits cids, has an effective tenancy in the view.
func (v overlayView) keeps(isp string, cids []ConduitID) bool {
	for _, cid := range cids {
		if !v.o.touched[cid] || v.HasTenant(cid, isp) {
			return true
		}
	}
	for _, cid := range v.o.targets {
		if v.HasTenant(cid, isp) {
			return true
		}
	}
	return false
}

var _ View = overlayView{}
