package geo

import (
	"context"

	"intertubes/internal/par"
)

// overlap.go implements the co-location (buffered overlap) analysis
// the paper performed with ArcGIS: for each fiber conduit polyline,
// what fraction of the route lies within a buffer of the roadway
// layer, the railway layer, or both (Figure 4).

// OverlapOptions configures a co-location analysis.
type OverlapOptions struct {
	// BufferKm is the half-width of the buffer drawn around each
	// infrastructure layer. The paper does not state the ArcGIS buffer;
	// we default to 15 km, which matches the visual scale of its
	// National Atlas comparison. Ablations at 10/20/40 km are in
	// EXPERIMENTS.md.
	BufferKm float64
	// SampleStepKm is the spacing of probe points along the analyzed
	// polyline. Defaults to 10 km.
	SampleStepKm float64
	// IndexCellKm is the spatial-index cell size. Defaults to BufferKm.
	IndexCellKm float64
}

func (o OverlapOptions) withDefaults() OverlapOptions {
	if o.BufferKm <= 0 {
		o.BufferKm = 15
	}
	if o.SampleStepKm <= 0 {
		o.SampleStepKm = 10
	}
	if o.IndexCellKm <= 0 {
		o.IndexCellKm = o.BufferKm
	}
	return o
}

// OverlapAnalyzer measures what fraction of a query polyline is
// co-located with each of a set of named infrastructure layers.
type OverlapAnalyzer struct {
	opts   OverlapOptions
	names  []string
	layers map[string]*GridIndex
}

// NewOverlapAnalyzer indexes the given layers (name -> polylines).
func NewOverlapAnalyzer(layers map[string][]Polyline, opts OverlapOptions) *OverlapAnalyzer {
	opts = opts.withDefaults()
	a := &OverlapAnalyzer{
		opts:   opts,
		layers: make(map[string]*GridIndex, len(layers)),
	}
	for name, pls := range layers {
		idx := NewGridIndex(opts.IndexCellKm)
		for _, pl := range pls {
			idx.InsertPolyline(pl.Resample(opts.BufferKm))
		}
		a.names = append(a.names, name)
		a.layers[name] = idx
	}
	return a
}

// Layers returns the registered layer names (in registration order is
// not guaranteed; callers should not rely on ordering).
func (a *OverlapAnalyzer) Layers() []string {
	out := make([]string, len(a.names))
	copy(out, a.names)
	return out
}

// Colocation is the result of analyzing one polyline: for each layer,
// the fraction (0..1) of sampled route points within the buffer, plus
// the fraction near any layer and near none.
type Colocation struct {
	Fractions map[string]float64 // per layer
	Any       float64            // within buffer of at least one layer
	None      float64            // within buffer of no layer
	Samples   int
}

// AnalyzeAll analyzes each polyline using up to `workers` goroutines
// (<= 0 means all CPUs) and returns the results in input order. Every
// analysis reads only the immutable layer indexes, so the output is
// identical to calling Analyze in a loop for any worker count.
func (a *OverlapAnalyzer) AnalyzeAll(pls []Polyline, workers int) []Colocation {
	out, _ := par.Map(context.Background(), len(pls), workers, func(i int) Colocation {
		return a.Analyze(pls[i])
	}) // background ctx: cannot fail
	return out
}

// Analyze samples the polyline and measures per-layer co-location.
// An empty or single-point polyline yields zero samples and NaN-free
// zero fractions.
func (a *OverlapAnalyzer) Analyze(pl Polyline) Colocation {
	res := Colocation{Fractions: make(map[string]float64, len(a.layers))}
	pts := pl.Resample(a.opts.SampleStepKm)
	if len(pts) == 0 {
		for name := range a.layers {
			res.Fractions[name] = 0
		}
		return res
	}
	hits := make(map[string]int, len(a.layers))
	anyHits, noneHits := 0, 0
	for _, p := range pts {
		near := false
		for name, idx := range a.layers {
			if idx.AnyWithinKm(p, a.opts.BufferKm) {
				hits[name]++
				near = true
			}
		}
		if near {
			anyHits++
		} else {
			noneHits++
		}
	}
	n := float64(len(pts))
	for name := range a.layers {
		res.Fractions[name] = float64(hits[name]) / n
	}
	res.Any = float64(anyHits) / n
	res.None = float64(noneHits) / n
	res.Samples = len(pts)
	return res
}
