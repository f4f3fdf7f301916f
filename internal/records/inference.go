package records

import (
	"sort"
	"strings"
)

// inference.go implements steps 2 and 4 of the paper's mapping
// process: given the searchable public-records corpus, validate that a
// fiber link between two cities exists along a right-of-way, and infer
// which other providers share the conduit.

// Inference runs validation and sharing-inference queries against an
// index. It is safe for concurrent use.
type Inference struct {
	idx *Index
}

// NewInference prepares an inference engine over idx. Mentions are
// matched against the token sequences the index already holds.
func NewInference(idx *Index) *Inference {
	return &Inference{idx: idx}
}

// containsSeq reports whether needle occurs as a contiguous
// subsequence of haystack.
func containsSeq[T comparable](haystack, needle []T) bool {
	if len(needle) == 0 {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j, t := range needle {
			if haystack[i+j] != t {
				continue outer
			}
		}
		return true
	}
	return false
}

// mentions reports whether doc i mentions a phrase (e.g. an ISP or
// city name), given as term ids (Index.phrase), as a contiguous token
// sequence. Callers tokenize each phrase once per query, not once per
// hit.
func (inf *Inference) mentions(doc int, phrase []int32) bool {
	return containsSeq(inf.idx.docTerms[doc], phrase)
}

// Evidence records why a tenancy was inferred.
type Evidence struct {
	ISP   string
	DocID int
}

// TenantsFor searches the corpus for the conduit between the two city
// keys and returns the ISPs (from the candidate universe) mentioned in
// documents that reference both endpoint cities, together with the
// supporting document ids. This mirrors the paper's
// "<city> to <city> fiber iru <isp>" query workflow.
func (inf *Inference) TenantsFor(ref ConduitRef, candidates []string, topK int) []Evidence {
	a, b := cityName(ref.A), cityName(ref.B)
	hits := inf.idx.Search(a+" to "+b+" fiber conduit right of way iru", topK)
	ta, tb := inf.idx.phrase(a), inf.idx.phrase(b)
	tc := make([][]int32, len(candidates))
	for i, isp := range candidates {
		tc[i] = inf.idx.phrase(isp)
	}
	found := make(map[string]int) // isp -> first doc id
	for _, h := range hits {
		if !inf.mentions(h.DocID, ta) || !inf.mentions(h.DocID, tb) {
			continue // the document is about some other route
		}
		for i, isp := range candidates {
			if _, ok := found[isp]; ok {
				continue
			}
			if inf.mentions(h.DocID, tc[i]) {
				found[isp] = h.DocID
			}
		}
	}
	out := make([]Evidence, 0, len(found))
	for isp, doc := range found {
		out = append(out, Evidence{ISP: isp, DocID: doc})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ISP < out[j].ISP })
	return out
}

// Validate checks for public evidence that isp occupies the conduit:
// a document mentioning both endpoint cities and the ISP. It returns
// the supporting document id when found.
func (inf *Inference) Validate(ref ConduitRef, isp string, topK int) (int, bool) {
	a, b := cityName(ref.A), cityName(ref.B)
	hits := inf.idx.Search(a+" to "+b+" fiber iru "+strings.ToLower(isp), topK)
	ta, tb, ti := inf.idx.phrase(a), inf.idx.phrase(b), inf.idx.phrase(isp)
	for _, h := range hits {
		if inf.mentions(h.DocID, ta) && inf.mentions(h.DocID, tb) && inf.mentions(h.DocID, ti) {
			return h.DocID, true
		}
	}
	return 0, false
}

// ScoreReport quantifies inference quality against ground truth.
type ScoreReport struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
}

// Precision returns TP / (TP + FP), or 1 when nothing was inferred.
func (s ScoreReport) Precision() float64 {
	d := s.TruePositives + s.FalsePositives
	if d == 0 {
		return 1
	}
	return float64(s.TruePositives) / float64(d)
}

// Recall returns TP / (TP + FN), or 1 when there was nothing to find.
func (s ScoreReport) Recall() float64 {
	d := s.TruePositives + s.FalseNegatives
	if d == 0 {
		return 1
	}
	return float64(s.TruePositives) / float64(d)
}

// Score compares an inferred tenancy relation with the corpus ground
// truth.
func Score(inferred map[ConduitRef][]string, c *Corpus) ScoreReport {
	var rep ScoreReport
	for _, ref := range c.Refs() {
		truth := c.TrueTenants(ref)
		got := inferred[ref]
		for _, isp := range got {
			if containsString(truth, isp) {
				rep.TruePositives++
			} else {
				rep.FalsePositives++
			}
		}
		for _, isp := range truth {
			if !containsString(got, isp) {
				rep.FalseNegatives++
			}
		}
	}
	return rep
}
