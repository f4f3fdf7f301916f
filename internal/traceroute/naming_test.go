package traceroute

import (
	"testing"

	"intertubes/internal/atlas"
)

// naming_test.go pins the hop-name codec: every name the campaign can
// synthesize decodes back to its city and provider, and provider
// resolution never depends on map iteration order.

func TestHopNameRoundTripsEveryCityAndProvider(t *testing.T) {
	a := atlas.Load()
	n := NewNamer(a)
	for isp := range domainForISP {
		for city := range a.Cities {
			name := n.HopName(1+city%9, city, isp)
			gotCity, gotISP, ok := n.DecodeHopName(name)
			if !ok || gotCity != city || gotISP != isp {
				t.Fatalf("DecodeHopName(%q) = %d,%q,%v; want %d,%q", name, gotCity, gotISP, ok, city, isp)
			}
			if got, ok := ISPForDomain(name); !ok || got != isp {
				t.Fatalf("ISPForDomain(%q) = %q,%v; want %q", name, got, ok, isp)
			}
		}
	}
}

func TestDomainResolutionOverlappingSuffixes(t *testing.T) {
	// "comcast.net" ends "st.net" and "t.net"; "cbone.comcast.net"
	// ends all three. Resolution must be exact-domain first, then the
	// longest suffix, on every call.
	table := newDomainTable(map[string]string{
		"Core":  "comcast.net",
		"Cable": "cbone.comcast.net",
		"Short": "t.net",
		"Mid":   "st.net",
	})
	cases := []struct {
		name, want string
	}{
		{"ae-1.dalltx.cbone.comcast.net", "Cable"}, // exact domain
		{"ae-1.dalltx.comcast.net", "Core"},        // exact domain
		{"ae-1.dalltx.x.cbone.comcast.net", "Cable"},
		{"ae-1.dalltx.bigcomcast.net", "Core"},
		{"ae-1.dalltx.east.net", "Mid"},
		{"ae-1.dalltx.t.net", "Short"},
		{"ae-1.dalltx.at.net", "Short"},
	}
	for _, tc := range cases {
		_, dom, _ := splitHopName(tc.name)
		for call := 0; call < 50; call++ {
			got, ok := table.resolve(tc.name, dom)
			if !ok || got != tc.want {
				t.Fatalf("call %d: resolve(%q) = %q,%v; want %q", call, tc.name, got, ok, tc.want)
			}
		}
	}
	if _, ok := table.resolve("ae-1.dalltx.example.org", "example.org"); ok {
		t.Error("unknown domain resolved")
	}
}

// TestDecodeHopNameAcceptance pins which names decode: two dots, a
// known city code between them, and a known provider domain suffix —
// external corpora's looser names included.
func TestDecodeHopNameAcceptance(t *testing.T) {
	a := atlas.Load()
	n := NewNamer(a)
	code := n.Code(a.MustCity("Dallas,TX"))
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"ae-1." + code + ".level3.net", true},
		{"xe-0-1." + code + ".cbone.comcast.net", true},
		{"ae-1." + code + ".core.level3.net", true}, // deeper domain, suffix match
		{"ae-1." + code + ".xlevel3.net", true},     // suffix match without a label boundary
		{"ae-1." + code + ".level3.net.example", false},
		{"ae-1." + code, false},
		{code + ".level3.net", false}, // the city code must be the second label
		{"ae-1.nowhere.level3.net", false},
		{"", false},
	} {
		if _, _, ok := n.DecodeHopName(tc.name); ok != tc.ok {
			t.Errorf("DecodeHopName(%q) ok=%v, want %v", tc.name, ok, tc.ok)
		}
	}
}
