package resilience

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"intertubes/internal/fiber"
)

// digest_test.go pins the package's map-level outputs byte for byte.
// Each digest is the sha256 over the json.Marshal bytes of every
// result in a fixed family, concatenated in order. The values were
// recorded while CutImpact still walked the map with a union-find over
// tenant strings and PartitionCosts still ran the dense Stoer-Wagner
// kernel; the row kernels that replaced both must reproduce them.

// digestOf hashes the JSON encodings of vs, in order.
func digestOf(t *testing.T, vs []any) string {
	t.Helper()
	h := sha256.New()
	for _, v := range vs {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestCutImpactDigests(t *testing.T) {
	res, mx := build(t)
	m := res.Map

	var single []any
	for cid := 0; cid < m.NumConduits(); cid++ {
		single = append(single, CutImpact(m, mx, []fiber.ConduitID{fiber.ConduitID(cid)}))
	}
	if len(single) != 382 {
		t.Fatalf("%d single cuts, want 382", len(single))
	}
	if got, want := digestOf(t, single), "601bec2913e6cb44474190a4b68c6b8a14f8fce463ee5ae3e96b6040557bcf8c"; got != want {
		t.Errorf("single-cut digest = %s, want %s", got, want)
	}

	var targeted []any
	for k := 1; k <= 32; k++ {
		targeted = append(targeted, CutImpact(m, mx, TargetedBySharing(mx, k)))
	}
	if got, want := digestOf(t, targeted), "889d3b6fca4f2b07842dd1be26b5cb8eeae8ec920b1138d6099fca8bbb4f622e"; got != want {
		t.Errorf("targeted-by-sharing digest = %s, want %s", got, want)
	}
}

func TestPartitionCostsDigest(t *testing.T) {
	res, mx := build(t)
	got := digestOf(t, []any{PartitionCosts(res.Map, mx.ISPs)})
	if want := "3fb685e53bf9befbc332cee2005d03e2315ec0fd6d7b8bff1790d1b921f3e9e0"; got != want {
		t.Errorf("partition-cost digest = %s, want %s", got, want)
	}
}
