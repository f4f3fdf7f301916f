//go:build !race

package traceroute

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
