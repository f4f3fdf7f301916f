package intertubes_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"intertubes"
)

// TestRenderResilienceDigest pins the resilience report byte for byte:
// criticality, targeted-vs-random cuts and partition costs as users
// see them. The report reads only the map and the risk matrix, so the
// digest does not depend on the campaign size.
func TestRenderResilienceDigest(t *testing.T) {
	s := intertubes.NewStudy(intertubes.Options{Seed: 42})
	sum := sha256.Sum256([]byte(s.RenderResilience(8)))
	if got, want := hex.EncodeToString(sum[:]), "3b220e161cf4961935288c4a43613a7f1262abd1ce5a2a105d9a4dfce705eeb4"; got != want {
		t.Errorf("RenderResilience(8) digest = %s, want %s", got, want)
	}
}
