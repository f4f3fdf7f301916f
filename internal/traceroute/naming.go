package traceroute

import (
	"sort"
	"strconv"
	"strings"

	"intertubes/internal/atlas"
)

// naming.go synthesizes and decodes router interface DNS names. The
// paper attributed layer-3 hops to cities and providers through
// "geolocation information and naming hints in the traceroute data"
// (citing DRoP and Chabarek's "What's in a Name?"); our hop names
// follow the same convention real carriers use:
//
//	ae-3.dllstx.sprintlink.net
//	     ^^^^^^ city code   ^^^ provider domain
//
// A Namer builds the code table for a city set and decodes names back
// to (city, provider) — including the collision handling a real
// decoder needs.

// domainForISP maps provider names to the DNS domains seen in
// traceroute data.
var domainForISP = map[string]string{
	"AT&T":             "att.net",
	"Comcast":          "cbone.comcast.net",
	"Cogent":           "cogentco.com",
	"EarthLink":        "earthlink.net",
	"Integra":          "integra.net",
	"Level 3":          "level3.net",
	"Suddenlink":       "suddenlink.net",
	"Verizon":          "alter.net",
	"Zayo":             "zayo.com",
	"CenturyLink":      "centurylink.net",
	"Cox":              "cox.net",
	"Deutsche Telekom": "dtag.de",
	"HE":               "he.net",
	"Inteliquent":      "inteliquent.com",
	"NTT":              "ntt.net",
	"Sprint":           "sprintlink.net",
	"Tata":             "as6453.net",
	"TeliaSonera":      "telia.net",
	"TWC":              "twcable.com",
	"XO":               "xo.net",
	"SoftLayer":        "softlayer.com",
	"MFN":              "mfnx.net",
	"GTT":              "gtt.net",
	"Windstream":       "windstream.net",
}

// domainTable resolves hop-name domains to providers. A provider is
// numbered by its position in isps (sorted by name); that decoder
// index is what the campaign's overlay tables and tally are keyed by.
type domainTable struct {
	isps  []string       // provider names, sorted
	exact map[string]int // domain -> provider index
	// bySuffix lists every domain longest first (then
	// lexicographically), so the first suffix match is the longest.
	bySuffix []domainEntry
}

type domainEntry struct {
	domain string
	isp    int
}

func newDomainTable(domains map[string]string) *domainTable {
	t := &domainTable{exact: make(map[string]int, len(domains))}
	for isp := range domains {
		t.isps = append(t.isps, isp)
	}
	sort.Strings(t.isps)
	for i, isp := range t.isps {
		t.exact[domains[isp]] = i
		t.bySuffix = append(t.bySuffix, domainEntry{domain: domains[isp], isp: i})
	}
	sort.Slice(t.bySuffix, func(i, j int) bool {
		di, dj := t.bySuffix[i].domain, t.bySuffix[j].domain
		if len(di) != len(dj) {
			return len(di) > len(dj)
		}
		return di < dj
	})
	return t
}

// resolve returns the provider index of a hop name whose domain — the
// labels after the interface and city code — is dom: the provider
// owning exactly dom if there is one, else the one whose domain is the
// longest suffix of name. Both rules are independent of map order, so
// a name resolves the same way on every call.
func (t *domainTable) resolve(name, dom string) (int, bool) {
	if isp, ok := t.exact[dom]; ok {
		return isp, true
	}
	for _, e := range t.bySuffix {
		if strings.HasSuffix(name, e.domain) {
			return e.isp, true
		}
	}
	return 0, false
}

var domains = newDomainTable(domainForISP)

// splitHopName locates the city-code label of a hop name
// ("ae-3.dllstx.sprintlink.net" -> "dllstx", "sprintlink.net"); ok is
// false when the name has fewer than two dots.
func splitHopName(name string) (code, dom string, ok bool) {
	i := strings.IndexByte(name, '.')
	if i < 0 {
		return "", "", false
	}
	j := strings.IndexByte(name[i+1:], '.')
	if j < 0 {
		return "", "", false
	}
	j += i + 1
	return name[i+1 : j], name[j+1:], true
}

// ISPForDomain resolves a hop name's domain back to a provider name,
// the way the paper's naming-hint analysis did: by the provider whose
// domain is exactly the name's domain, else by the longest provider
// domain the name ends with.
func ISPForDomain(hopName string) (string, bool) {
	_, dom, ok := splitHopName(hopName)
	if !ok {
		dom = hopName
	}
	isp, ok := domains.resolve(hopName, dom)
	if !ok {
		return "", false
	}
	return domains.isps[isp], true
}

// Namer translates between cities and router-name city codes.
type Namer struct {
	codes  []string       // per atlas city index
	byCode map[string]int // code -> city index
}

// NewNamer builds the code table for the atlas cities. Codes are the
// first four letters of the condensed city name plus the lowercase
// state; collisions get a numeric suffix (deterministically, by city
// index).
func NewNamer(a *atlas.Atlas) *Namer {
	n := &Namer{codes: make([]string, len(a.Cities)), byCode: make(map[string]int)}
	// Assign in a fixed order so collision suffixes are stable.
	idxs := make([]int, len(a.Cities))
	for i := range idxs {
		idxs[i] = i
	}
	sort.Slice(idxs, func(x, y int) bool { return idxs[x] < idxs[y] })
	for _, i := range idxs {
		base := baseCode(a.Cities[i].Name, a.Cities[i].State)
		code := base
		for suffix := 2; ; suffix++ {
			if _, taken := n.byCode[code]; !taken {
				break
			}
			code = base + strconv.Itoa(suffix)
		}
		n.codes[i] = code
		n.byCode[code] = i
	}
	return n
}

func baseCode(city, state string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(city) {
		if r >= 'a' && r <= 'z' {
			b.WriteRune(r)
		}
		if b.Len() == 4 {
			break
		}
	}
	return b.String() + strings.ToLower(state)
}

// Code returns the city code for an atlas city index.
func (n *Namer) Code(city int) string { return n.codes[city] }

// CityForCode decodes a city code.
func (n *Namer) CityForCode(code string) (int, bool) {
	i, ok := n.byCode[code]
	return i, ok
}

// HopName renders a full router interface name.
func (n *Namer) HopName(ifIndex, city int, isp string) string {
	dom, ok := domainForISP[isp]
	if !ok {
		dom = "unknown.net"
	}
	return "ae-" + strconv.Itoa(ifIndex) + "." + n.codes[city] + "." + dom
}

// DecodeHopName extracts the city and provider from a router name.
// It returns ok=false if either part cannot be resolved.
func (n *Namer) DecodeHopName(name string) (city int, isp string, ok bool) {
	city, i, ok := n.decodeHop(name)
	if !ok {
		return 0, "", false
	}
	return city, domains.isps[i], true
}

// decodeHop is DecodeHopName with the provider as its decoder index.
func (n *Namer) decodeHop(name string) (city, isp int, ok bool) {
	code, dom, ok := splitHopName(name)
	if !ok {
		return 0, 0, false
	}
	city, cok := n.byCode[code]
	isp, iok := domains.resolve(name, dom)
	return city, isp, cok && iok
}
