package fiber

import (
	"encoding/json"

	"intertubes/internal/geo"
)

// geojson.go renders the map in GeoJSON so the constructed Figure 1
// can be inspected in any GIS viewer, mirroring the paper's release of
// its map through the PREDICT portal.

type geoJSONFeature struct {
	Type       string         `json:"type"`
	Geometry   geoJSONGeom    `json:"geometry"`
	Properties map[string]any `json:"properties"`
}

type geoJSONGeom struct {
	Type        string `json:"type"`
	Coordinates any    `json:"coordinates"`
}

type geoJSONDoc struct {
	Type     string           `json:"type"`
	Features []geoJSONFeature `json:"features"`
}

func lonLat(p geo.Point) [2]float64 { return [2]float64{p.Lon, p.Lat} }

// GeoJSON serializes the map: every node becomes a Point feature and
// every tenanted conduit a LineString feature carrying its tenants
// and length.
func (m *Map) GeoJSON() ([]byte, error) {
	doc := geoJSONDoc{Type: "FeatureCollection"}
	for i := range m.Nodes {
		n := &m.Nodes[i]
		doc.Features = append(doc.Features, geoJSONFeature{
			Type:     "Feature",
			Geometry: geoJSONGeom{Type: "Point", Coordinates: lonLat(n.Loc)},
			Properties: map[string]any{
				"city":       n.City,
				"state":      n.State,
				"population": n.Population,
			},
		})
	}
	for i := range m.Conduits {
		c := &m.Conduits[i]
		if len(c.Tenants) == 0 {
			continue
		}
		coords := make([][2]float64, len(c.Path))
		for j, p := range c.Path {
			coords[j] = lonLat(p)
		}
		doc.Features = append(doc.Features, geoJSONFeature{
			Type:     "Feature",
			Geometry: geoJSONGeom{Type: "LineString", Coordinates: coords},
			Properties: map[string]any{
				"a":        m.Nodes[c.A].Key(),
				"b":        m.Nodes[c.B].Key(),
				"lengthKm": c.LengthKm,
				"tenants":  c.Tenants,
				"sharing":  len(c.Tenants),
			},
		})
	}
	return json.MarshalIndent(doc, "", " ")
}

// LayerGeoJSON serializes a bare polyline layer (e.g. the atlas road
// or rail network) for side-by-side display with the fiber map, as in
// the paper's Figures 2 and 3.
func LayerGeoJSON(name string, lines []geo.Polyline) ([]byte, error) {
	doc := geoJSONDoc{Type: "FeatureCollection"}
	for _, pl := range lines {
		coords := make([][2]float64, len(pl))
		for j, p := range pl {
			coords[j] = lonLat(p)
		}
		doc.Features = append(doc.Features, geoJSONFeature{
			Type:       "Feature",
			Geometry:   geoJSONGeom{Type: "LineString", Coordinates: coords},
			Properties: map[string]any{"layer": name},
		})
	}
	return json.MarshalIndent(doc, "", " ")
}
