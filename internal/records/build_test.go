package records_test

import (
	"context"
	"slices"
	"testing"

	"intertubes/internal/mapbuilder"
	"intertubes/internal/records"
)

// build_test.go is the differential suite for the index's document
// token sequences and the once-per-query phrase tokenization, run on
// the corpus of a seed-42 map build.

func TestSharedDocTokensMatchTokenize(t *testing.T) {
	res := mapbuilder.Build(context.Background(), mapbuilder.Options{Seed: 42})
	toks := res.Index.DocTokens()
	for i, d := range res.Corpus.Docs {
		if want := records.Tokenize(d.Title + " " + d.Body); !slices.Equal(toks[i], want) {
			t.Fatalf("doc %d: index tokens %q, want %q", i, toks[i], want)
		}
	}
}

// TestValidateMatchesPerHitReference asks every query a seed-42 build
// can make: steps 2 and 4 validate only corridor placements of mapped
// providers, so each corridor's records reference against each mapped
// provider covers every distinct query of the build.
func TestValidateMatchesPerHitReference(t *testing.T) {
	res := mapbuilder.Build(context.Background(), mapbuilder.Options{Seed: 42})
	inf := records.NewInference(res.Index)
	const topK = 8 // mapbuilder's default ValidateTopK
	seen := make(map[records.ConduitRef]bool)
	found := 0
	for _, c := range res.Atlas.Corridors {
		ref := records.NewConduitRef(res.Atlas.Cities[c.A].Key(), res.Atlas.Cities[c.B].Key())
		if seen[ref] {
			continue
		}
		seen[ref] = true
		for _, isp := range mapbuilder.MappedNames() {
			gotID, gotOK := inf.Validate(ref, isp, topK)
			wantID, wantOK := records.ValidatePerHit(res.Index, ref, isp, topK)
			if gotID != wantID || gotOK != wantOK {
				t.Fatalf("Validate(%v, %q) = (%d, %v), per-hit reference (%d, %v)", ref, isp, gotID, gotOK, wantID, wantOK)
			}
			if gotOK {
				found++
			}
		}
	}
	if found == 0 {
		t.Fatal("no query validated: the comparison is vacuous")
	}
}
