package intertubes

import (
	"encoding/json"
	"os"
	"sort"

	"intertubes/internal/fiber"
	"intertubes/internal/geo"
	"intertubes/internal/graph"
)

// annotated.go implements the paper's §8 future work: "annotated
// versions of our map, focusing in particular on traffic and
// propagation delay". Every published conduit is annotated with its
// tenancy, traceroute-derived traffic, propagation delay, and
// criticality, and the result can be exported as GeoJSON whose
// properties carry the annotations.

// ConduitAnnotation is the full per-conduit record of the annotated
// map.
type ConduitAnnotation struct {
	ID       int      `json:"id"`
	A        string   `json:"a"`
	B        string   `json:"b"`
	LengthKm float64  `json:"lengthKm"`
	DelayMs  float64  `json:"delayMs"` // one-way propagation
	Tenants  []string `json:"tenants"`
	Sharing  int      `json:"sharing"`
	// ProbesWestEast/ProbesEastWest are the traceroute overlay counts
	// (the traffic proxy of §4.3).
	ProbesWestEast int64 `json:"probesWestEast"`
	ProbesEastWest int64 `json:"probesEastWest"`
	// InferredTenants are providers seen on the conduit only through
	// traceroute naming hints.
	InferredTenants []string `json:"inferredTenants,omitempty"`
	// Betweenness is the conduit's shortest-path centrality.
	Betweenness float64 `json:"betweenness"`
}

// AnnotatedMap combines the risk matrix, the traceroute campaign, and
// the criticality analysis into one record per published conduit,
// sorted by descending total probes.
func (s *Study) AnnotatedMap() []ConduitAnnotation {
	m := s.res.Map
	camp := s.Campaign()
	bc := fiber.Graph(m).EdgeBetweenness(graph.NewWorkspace(), fiber.LitWeight(m), nil)

	var out []ConduitAnnotation
	for i := range m.Conduits {
		c := &m.Conduits[i]
		if len(c.Tenants) == 0 {
			continue
		}
		ann := ConduitAnnotation{
			ID:       int(c.ID),
			A:        m.Node(c.A).Key(),
			B:        m.Node(c.B).Key(),
			LengthKm: c.LengthKm,
			DelayMs:  geo.FiberLatencyMs(c.LengthKm),
			Tenants:  append([]string(nil), c.Tenants...),
			Sharing:  len(c.Tenants),
		}
		if d := camp.ConduitProbes[c.ID]; d != nil {
			ann.ProbesWestEast, ann.ProbesEastWest = d.WestEast, d.EastWest
		}
		for isp := range camp.InferredTenants[c.ID] {
			if !c.HasTenant(isp) {
				ann.InferredTenants = append(ann.InferredTenants, isp)
			}
		}
		sort.Strings(ann.InferredTenants)
		ann.Betweenness = bc[int(c.ID)]
		out = append(out, ann)
	}
	sort.Slice(out, func(i, j int) bool {
		ti := out[i].ProbesWestEast + out[i].ProbesEastWest
		tj := out[j].ProbesWestEast + out[j].ProbesEastWest
		if ti != tj {
			return ti > tj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ExportAnnotatedGeoJSON writes the annotated map as a GeoJSON
// FeatureCollection whose LineString properties carry every
// annotation.
func (s *Study) ExportAnnotatedGeoJSON(path string) error {
	raw, err := s.AnnotatedGeoJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// AnnotatedGeoJSON renders the annotated map as GeoJSON bytes.
func (s *Study) AnnotatedGeoJSON() ([]byte, error) {
	m := s.res.Map
	anns := s.AnnotatedMap()
	type feature struct {
		Type     string         `json:"type"`
		Geometry map[string]any `json:"geometry"`
		Props    map[string]any `json:"properties"`
	}
	doc := struct {
		Type     string    `json:"type"`
		Features []feature `json:"features"`
	}{Type: "FeatureCollection"}
	for _, ann := range anns {
		c := m.Conduit(fiber.ConduitID(ann.ID))
		coords := make([][2]float64, len(c.Path))
		for j, p := range c.Path {
			coords[j] = [2]float64{p.Lon, p.Lat}
		}
		doc.Features = append(doc.Features, feature{
			Type: "Feature",
			Geometry: map[string]any{
				"type":        "LineString",
				"coordinates": coords,
			},
			Props: map[string]any{
				"a":               ann.A,
				"b":               ann.B,
				"lengthKm":        ann.LengthKm,
				"delayMs":         ann.DelayMs,
				"tenants":         ann.Tenants,
				"sharing":         ann.Sharing,
				"probesWestEast":  ann.ProbesWestEast,
				"probesEastWest":  ann.ProbesEastWest,
				"inferredTenants": ann.InferredTenants,
				"betweenness":     ann.Betweenness,
			},
		})
	}
	return json.MarshalIndent(doc, "", " ")
}

// HighRiskHighTraffic returns the conduits in the top-k of both
// sharing and traffic — "those components of the long-haul fiber-optic
// infrastructure which experience high levels of infrastructure
// sharing as well as high volumes of traffic" (the paper's §1
// framing of its second contribution).
func (s *Study) HighRiskHighTraffic(k int) []ConduitAnnotation {
	anns := s.AnnotatedMap() // already traffic-sorted
	if k > len(anns) {
		k = len(anns)
	}
	topTraffic := anns[:k]
	bySharing := append([]ConduitAnnotation(nil), anns...)
	sort.Slice(bySharing, func(i, j int) bool {
		if bySharing[i].Sharing != bySharing[j].Sharing {
			return bySharing[i].Sharing > bySharing[j].Sharing
		}
		return bySharing[i].ID < bySharing[j].ID
	})
	topShared := make(map[int]bool, k)
	for i := 0; i < k && i < len(bySharing); i++ {
		topShared[bySharing[i].ID] = true
	}
	var out []ConduitAnnotation
	for _, ann := range topTraffic {
		if topShared[ann.ID] {
			out = append(out, ann)
		}
	}
	return out
}
