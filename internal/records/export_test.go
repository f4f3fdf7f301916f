package records

import "strings"

// DocTokens returns every document's token sequence as the index
// holds it, spelled out from the term ids.
func (idx *Index) DocTokens() [][]string {
	vocab := make([]string, len(idx.postings))
	for t, id := range idx.terms {
		vocab[id] = t
	}
	out := make([][]string, len(idx.docTerms))
	for i, ids := range idx.docTerms {
		for _, id := range ids {
			out[i] = append(out[i], vocab[id])
		}
	}
	return out
}

// ValidatePerHit is the reference for Inference.Validate: the
// implementation that tokenized every document once for the inference
// engine and re-tokenized the three query phrases for every search
// hit. It reads only the documents' text, never the index's token
// sequences.
func ValidatePerHit(idx *Index, ref ConduitRef, isp string, topK int) (int, bool) {
	a, b := cityName(ref.A), cityName(ref.B)
	hits := idx.Search(a+" to "+b+" fiber iru "+strings.ToLower(isp), topK)
	for _, h := range hits {
		d := idx.Doc(h.DocID)
		toks := Tokenize(d.Title + " " + d.Body)
		mentions := func(phrase string) bool { return containsSeq(toks, Tokenize(phrase)) }
		if mentions(a) && mentions(b) && mentions(isp) {
			return h.DocID, true
		}
	}
	return 0, false
}
