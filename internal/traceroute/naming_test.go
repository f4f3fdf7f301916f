package traceroute

import (
	"sort"
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
			if !ok || table.isps[got] != tc.want {
				t.Fatalf("call %d: resolve(%q) = %d,%v; want %q", call, tc.name, got, ok, tc.want)
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

// TestHopSlotsDecodeLikeTheirNames checks the synthesizer's per-slot
// decoding against the decoder: each (provider, backbone city) slot
// holds the provider's nine interface names for the city, and its
// decoded hop equals decodeHop of every one of them. A provider
// outside the domain table gets names no study can decode.
func TestHopSlotsDecodeLikeTheirNames(t *testing.T) {
	res := campaignMap()
	a := res.Atlas
	names := make([]string, 0, len(res.Truth))
	for name := range res.Truth {
		names = append(names, name)
	}
	sort.Strings(names)
	isps := transitProviders(res, names)
	const foreign = "Nowhere Fiber"
	if _, ok := domainForISP[foreign]; ok {
		t.Fatalf("%s is in the domain table", foreign)
	}
	isps = append(isps, &ispContext{name: foreign, nodes: isps[0].nodes})
	namer := NewNamer(a)
	syn := newSynthesizer(a, namer, newCityDistances(a), isps)
	n := len(a.Cities)
	slots := 0
	for i, ctx := range isps {
		for _, city := range ctx.nodes {
			sl := syn.slots[i*n+city]
			slots++
			for k := 0; k < hopInterfaces; k++ {
				off := int(sl.off) + k*int(sl.n)
				name := syn.names[off : off+int(sl.n)]
				if want := namer.HopName(k+1, city, ctx.name); name != want {
					t.Fatalf("%s at city %d, interface %d: arena name %q, want %q", ctx.name, city, k+1, name, want)
				}
				city2, isp, ok := namer.decodeHop(name)
				if ok != sl.decodes || ok && (decodedHop{city: city2, isp: isp}) != sl.hop {
					t.Fatalf("%s: slot decodes to %+v, %v; decodeHop gives %d, %d, %v",
						name, sl.hop, sl.decodes, city2, isp, ok)
				}
			}
			_, known := domainForISP[ctx.name]
			if sl.decodes != known {
				t.Errorf("%s at city %d: slot decodes = %v, provider in domain table = %v", ctx.name, city, sl.decodes, known)
			}
		}
	}
	if slots == 0 {
		t.Fatal("no slots checked")
	}
}
