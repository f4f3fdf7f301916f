package records

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// search_test.go is the differential suite for Index.Search: the
// map-accumulate-and-full-sort implementation below is the oracle, and
// Search must return exactly its results — same documents, same
// float64 scores bit for bit, same order — for any query and any k.

// searchOracle scores every matching document in a map and sorts them
// all, keeping k.
func searchOracle(idx *Index, query string, k int) []Result {
	if k <= 0 {
		return nil
	}
	nDocs := float64(len(idx.corpus.Docs))
	scores := make(map[int32]float64)
	seen := make(map[string]bool)
	for _, t := range Tokenize(query) {
		if seen[t] {
			continue
		}
		seen[t] = true
		ps := idx.postings[t]
		if len(ps) == 0 {
			continue
		}
		idf := math.Log(1 + nDocs/float64(len(ps)))
		for _, p := range ps {
			scores[p.doc] += idf * p.tf / math.Sqrt(idx.docLen[p.doc])
		}
	}
	out := make([]Result, 0, len(scores))
	for doc, s := range scores {
		out = append(out, Result{DocID: int(doc), Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].DocID < out[j].DocID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

var searchCities = []string{
	"Salt Lake City,UT", "Denver,CO", "Sacramento,CA", "Palo Alto,CA",
	"Gainesville,FL", "Ocala,FL", "Houston,TX", "Dallas,TX", "Phoenix,AZ",
	"Tucson,AZ", "Chicago,IL", "St. Louis,MO", "Kansas City,MO",
	"Omaha,NE", "Atlanta,GA", "Charlotte,NC", "Boise,ID", "Portland,OR",
	"Seattle,WA", "El Paso,TX", "Albuquerque,NM", "Memphis,TN",
}

// searchCorpus generates a corpus over random conduits between the
// test cities with random tenant sets.
func searchCorpus(seed int64) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	truth := GroundTruth{Tenants: map[ConduitRef][]string{}}
	for i := 0; i < 120; i++ {
		a := searchCities[rng.Intn(len(searchCities))]
		b := searchCities[rng.Intn(len(searchCities))]
		if a == b {
			continue
		}
		var tenants []string
		for _, isp := range testISPs {
			if rng.Float64() < 0.35 {
				tenants = append(tenants, isp)
			}
		}
		if len(tenants) == 0 {
			tenants = []string{testISPs[rng.Intn(len(testISPs))]}
		}
		truth.Tenants[NewConduitRef(a, b)] = tenants
	}
	return Generate(truth, testISPs, Options{Seed: seed, FalseTenantRate: 0.04})
}

// randomQuery draws tokens from the corpus vocabulary, with repeats,
// unknown words and the inference workflow's query shapes mixed in.
func randomQuery(rng *rand.Rand, vocab []string) string {
	switch rng.Intn(4) {
	case 0:
		a, b := searchCities[rng.Intn(len(searchCities))], searchCities[rng.Intn(len(searchCities))]
		return cityName(a) + " to " + cityName(b) + " fiber conduit right of way iru"
	case 1:
		a, b := searchCities[rng.Intn(len(searchCities))], searchCities[rng.Intn(len(searchCities))]
		return cityName(a) + " to " + cityName(b) + " fiber iru " + testISPs[rng.Intn(len(testISPs))]
	}
	n := 1 + rng.Intn(8)
	q := ""
	for i := 0; i < n; i++ {
		switch x := rng.Intn(10); {
		case x == 0:
			q += fmt.Sprintf(" zz%d", rng.Intn(5)) // never indexed
		case x == 1 && q != "":
			q += " " + q // repeated tokens score once
		default:
			q += " " + vocab[rng.Intn(len(vocab))]
		}
	}
	return q
}

func TestSearchMatchesOracle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		c := searchCorpus(seed)
		idx := BuildIndex(c)
		vocab := make([]string, 0, len(idx.postings))
		for tok := range idx.postings {
			vocab = append(vocab, tok)
		}
		sort.Strings(vocab)
		rng := rand.New(rand.NewSource(seed * 7))
		for q := 0; q < 400; q++ {
			query := randomQuery(rng, vocab)
			for _, k := range []int{1, 8, len(c.Docs) + 3} {
				got, want := idx.Search(query, k), searchOracle(idx, query, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d query %q k=%d:\n got  %v\n want %v", seed, query, k, got, want)
				}
			}
		}
	}
}

// TestSearchTiesBreakByDocID: identical documents score identically,
// so the top k must be the lowest ids among them.
func TestSearchTiesBreakByDocID(t *testing.T) {
	c := &Corpus{}
	for i := 0; i < 20; i++ {
		body := "denver to salt lake city fiber iru level 3"
		if i%3 == 0 {
			body = "denver fiber"
		}
		c.Docs = append(c.Docs, Document{ID: i, Title: "filing", Body: body})
	}
	idx := BuildIndex(c)
	for _, k := range []int{1, 3, 8, 50} {
		got, want := idx.Search("denver fiber iru", k), searchOracle(idx, "denver fiber iru", k)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: got %v, want %v", k, got, want)
		}
	}
}
