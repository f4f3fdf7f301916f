package records

import (
	"math"
	"sort"
	"strings"
	"sync"
	"unicode"
)

// index.go implements the search side of the paper's methodology: the
// authors drove "a systematic search for government-related public
// filings" with queries like "los angeles to san francisco fiber iru
// at&t sprint". We index the corpus with a TF-IDF-weighted inverted
// index and score queries by accumulated term weight.

// Tokenize lowercases s and splits it into letter/digit runs.
// Punctuation (including the '&' in AT&T) separates tokens, which is
// what a person typing search terms effectively does too.
func Tokenize(s string) []string {
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			tokens = append(tokens, b.String())
			b.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

type posting struct {
	doc int32
	tf  float64
}

// Index is an inverted index over a Corpus.
type Index struct {
	corpus   *Corpus
	postings map[string][]posting
	docLen   []float64
	// scratch pools per-query accumulators, so concurrent searches
	// neither share nor reallocate them.
	scratch sync.Pool
}

// BuildIndex indexes every document's title and body.
func BuildIndex(c *Corpus) *Index {
	idx := &Index{
		corpus:   c,
		postings: make(map[string][]posting),
		docLen:   make([]float64, len(c.Docs)),
	}
	for i, doc := range c.Docs {
		counts := make(map[string]int)
		toks := Tokenize(doc.Title + " " + doc.Body)
		for _, t := range toks {
			counts[t]++
		}
		idx.docLen[i] = float64(len(toks))
		for t, n := range counts {
			idx.postings[t] = append(idx.postings[t], posting{doc: int32(i), tf: float64(n)})
		}
	}
	return idx
}

// Result is one search hit.
type Result struct {
	DocID int
	Score float64
}

// Search scores documents against the query by TF-IDF sum and returns
// the top k hits, best first. Ties break by document id for
// determinism.
//
// Scores accumulate in a dense per-document array, each document's
// terms added in query-token order and then posting order (the float
// sums depend on that order), and a bounded insertion keeps only the
// k best: a query hashes no document ids and never sorts the hundreds
// of scored documents it discards.
func (idx *Index) Search(query string, k int) []Result {
	if k <= 0 {
		return nil
	}
	sc, _ := idx.scratch.Get().(*searchScratch)
	if sc == nil {
		sc = &searchScratch{
			scores: make([]float64, len(idx.docLen)),
			scored: make([]bool, len(idx.docLen)),
		}
	}
	defer idx.scratch.Put(sc)

	nDocs := float64(len(idx.corpus.Docs))
	toks := Tokenize(query)
	for i, t := range toks {
		if containsString(toks[:i], t) {
			continue // a repeated query term scores once
		}
		ps := idx.postings[t]
		if len(ps) == 0 {
			continue
		}
		idf := math.Log(1 + nDocs/float64(len(ps)))
		for _, p := range ps {
			if !sc.scored[p.doc] {
				sc.scored[p.doc] = true
				sc.touched = append(sc.touched, p.doc)
			}
			// Length-normalized TF.
			sc.scores[p.doc] += idf * p.tf / math.Sqrt(idx.docLen[p.doc])
		}
	}

	keepAll := k >= len(sc.touched)
	out := make([]Result, 0, min(k, len(sc.touched)))
	for _, doc := range sc.touched {
		r := Result{DocID: int(doc), Score: sc.scores[doc]}
		sc.scores[doc], sc.scored[doc] = 0, false
		switch {
		case keepAll:
			out = append(out, r) // sorted once below
		case len(out) < k || r.ranksBefore(out[k-1]):
			i := sort.Search(len(out), func(i int) bool { return r.ranksBefore(out[i]) })
			if len(out) < k {
				out = append(out, Result{})
			}
			copy(out[i+1:], out[i:len(out)-1])
			out[i] = r
		}
	}
	if keepAll {
		sort.Slice(out, func(i, j int) bool { return out[i].ranksBefore(out[j]) })
	}
	sc.touched = sc.touched[:0]
	return out
}

// ranksBefore is the result order: score descending, then document id
// ascending. Document ids are unique, so the order is total and the
// top k are the same set a full sort would keep.
func (r Result) ranksBefore(o Result) bool {
	if r.Score != o.Score {
		return r.Score > o.Score
	}
	return r.DocID < o.DocID
}

// searchScratch is one query's accumulator: dense scores, a scored
// flag per document, and the scored documents in first-touch order.
// Search leaves it zeroed for reuse.
type searchScratch struct {
	scores  []float64
	scored  []bool
	touched []int32
}

// Doc returns the indexed document by id.
func (idx *Index) Doc(id int) Document { return idx.corpus.Docs[id] }
