package mapbuilder

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"sort"
	"testing"
)

// digest_test.go pins the whole build: a digest over the Report, every
// conduit (endpoints, corridor, tenants, hidden tenants) and every
// provider's ground truth, recorded from the serial build that asked
// one validation query per placement. Answering each distinct query
// once on the worker pool must leave every byte in place, at any
// worker count.

func writeResultDigest(w io.Writer, r *Result) {
	fmt.Fprintf(w, "report %+v\n", r.Report)
	for i := range r.Map.Conduits {
		c := &r.Map.Conduits[i]
		fmt.Fprintf(w, "conduit %d %d %q %d %q corridor %d tenants %q hidden %q\n",
			c.ID, c.A, r.Map.Node(c.A).Key(), c.B, r.Map.Node(c.B).Key(), c.Corridor, c.Tenants, c.Hidden)
	}
	names := make([]string, 0, len(r.Truth))
	for name := range r.Truth {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fp := r.Truth[name]
		fmt.Fprintf(w, "truth %q pops %v edges %v routes %v\n", name, fp.POPs, sortedEdges(fp.Edges), fp.Routes)
	}
}

func resultDigest(r *Result) string {
	h := sha256.New()
	writeResultDigest(h, r)
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestBuildDigestPinned(t *testing.T) {
	want := map[int64]string{
		42: "ff1497bd8f4e7ca7ef636d69ac726477a6eecf929139d9151bf396b7026a228c",
		7:  "d3bdc71661ab567c01bcd916dba616eddeeda40cdf5c8b8d7875dded8226475a",
	}
	for _, seed := range []int64{42, 7} {
		for _, workers := range []int{1, 4} {
			res := Build(context.Background(), Options{Seed: seed, Workers: workers})
			if got := resultDigest(res); got != want[seed] {
				t.Errorf("seed %d workers %d: build digest %s, want %s", seed, workers, got, want[seed])
			}
		}
	}
}
