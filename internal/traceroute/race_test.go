//go:build race

package traceroute

// raceEnabled reports whether the race detector is compiled in; the
// allocation guard skips under it (instrumentation allocates).
const raceEnabled = true
