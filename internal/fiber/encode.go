package fiber

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"intertubes/internal/geo"
)

// encode.go serializes a Map to a line-oriented text format and back —
// the equivalent of the dataset the paper released through the
// PREDICT portal. The format is designed for diffing and longevity:
//
//	# comment
//	node|City|ST|<lat>|<lon>|<population>|<atlasCity>
//	conduit|<aKey>|<bKey>|<corridor>|<tenants,csv>|<hidden,csv>|<lat,lon;lat,lon;...>
//
// Node lines must precede the conduit lines that reference them.
// Coordinates are written with five decimals (~1 m); lengths are
// recomputed on load.

const datasetHeader = "# intertubes long-haul fiber map v1"

// WriteMap serializes the map. Each line is appended into one reused
// buffer, coordinates in strconv's 'f' format at five decimals, so the
// encoding allocates a few buffers rather than a few per coordinate.
func WriteMap(w io.Writer, m *Map) error {
	bw := bufio.NewWriter(w)
	b := append([]byte(datasetHeader), "\n# nodes="...)
	b = strconv.AppendInt(b, int64(len(m.Nodes)), 10)
	b = strconv.AppendInt(append(b, " conduits="...), int64(len(m.Conduits)), 10)
	b = strconv.AppendInt(append(b, " links="...), int64(m.LinkCount()), 10)
	bw.Write(append(b, '\n'))
	for i := range m.Nodes {
		n := &m.Nodes[i]
		b = append(append(b[:0], "node|"...), n.City...)
		b = append(append(b, '|'), n.State...)
		b = appendCoord(append(b, '|'), n.Loc.Lat)
		b = appendCoord(append(b, '|'), n.Loc.Lon)
		b = strconv.AppendInt(append(b, '|'), int64(n.Population), 10)
		b = strconv.AppendInt(append(b, '|'), int64(n.AtlasCity), 10)
		bw.Write(append(b, '\n'))
	}
	for i := range m.Conduits {
		c := &m.Conduits[i]
		b = appendKey(append(b[:0], "conduit|"...), &m.Nodes[c.A])
		b = appendKey(append(b, '|'), &m.Nodes[c.B])
		b = strconv.AppendInt(append(b, '|'), int64(c.Corridor), 10)
		b = appendCSV(append(b, '|'), c.Tenants)
		b = appendCSV(append(b, '|'), c.Hidden)
		b = append(b, '|')
		for j, p := range c.Path {
			if j > 0 {
				b = append(b, ';')
			}
			b = appendCoord(append(appendCoord(b, p.Lat), ','), p.Lon)
		}
		bw.Write(append(b, '\n'))
	}
	return bw.Flush() // reports the first failed write
}

func appendCoord(b []byte, deg float64) []byte { return strconv.AppendFloat(b, deg, 'f', 5, 64) }

func appendKey(b []byte, n *Node) []byte {
	return append(append(append(b, n.City...), ','), n.State...)
}

func appendCSV(b []byte, xs []string) []byte {
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, x...)
	}
	return b
}

// ReadMap parses a map written by WriteMap.
func ReadMap(r io.Reader) (*Map, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<22) // conduit paths are long lines
	m := NewMap()
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "|")
		switch fields[0] {
		case "node":
			if len(fields) != 7 {
				return nil, fmt.Errorf("fiber: line %d: node wants 7 fields, got %d", lineNo, len(fields))
			}
			lat, err1 := strconv.ParseFloat(fields[3], 64)
			lon, err2 := strconv.ParseFloat(fields[4], 64)
			pop, err3 := strconv.Atoi(fields[5])
			ac, err4 := strconv.Atoi(fields[6])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return nil, fmt.Errorf("fiber: line %d: malformed node numbers", lineNo)
			}
			loc := geo.Point{Lat: lat, Lon: lon}
			if !loc.Valid() {
				return nil, fmt.Errorf("fiber: line %d: invalid coordinates", lineNo)
			}
			m.AddNode(fields[1], fields[2], loc, pop, ac)
		case "conduit":
			if len(fields) != 7 {
				return nil, fmt.Errorf("fiber: line %d: conduit wants 7 fields, got %d", lineNo, len(fields))
			}
			a, ok := m.NodeByKey(fields[1])
			if !ok {
				return nil, fmt.Errorf("fiber: line %d: unknown node %q", lineNo, fields[1])
			}
			b, ok := m.NodeByKey(fields[2])
			if !ok {
				return nil, fmt.Errorf("fiber: line %d: unknown node %q", lineNo, fields[2])
			}
			corridor, err := strconv.Atoi(fields[3])
			if err != nil {
				return nil, fmt.Errorf("fiber: line %d: corridor: %v", lineNo, err)
			}
			path, err := parsePath(fields[6])
			if err != nil {
				return nil, fmt.Errorf("fiber: line %d: %v", lineNo, err)
			}
			cid := m.EnsureConduit(a, b, corridor, path)
			for _, t := range splitCSV(fields[4]) {
				m.AddTenant(cid, t)
			}
			for _, h := range splitCSV(fields[5]) {
				m.AddHiddenTenant(cid, h)
			}
		default:
			return nil, fmt.Errorf("fiber: line %d: unknown record %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fiber: %w", err)
	}
	return m, nil
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

func parsePath(s string) (geo.Polyline, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ";")
	out := make(geo.Polyline, 0, len(parts))
	for _, p := range parts {
		comma := strings.IndexByte(p, ',')
		if comma < 0 {
			return nil, fmt.Errorf("bad path point %q", p)
		}
		lat, err1 := strconv.ParseFloat(p[:comma], 64)
		lon, err2 := strconv.ParseFloat(p[comma+1:], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad path point %q", p)
		}
		out = append(out, geo.Point{Lat: lat, Lon: lon})
	}
	return out, nil
}
