package geo

// latency.go converts fiber route lengths to one-way propagation
// delays. Light in silica fiber travels at c divided by the group
// refractive index (~1.468 for standard single-mode fiber), i.e.
// about 204 km per millisecond — the paper's §5.3 rule of thumb that
// 100 µs ≈ 20 km follows from the same constant.

const (
	// SpeedOfLightKmPerMs is c in km/ms.
	SpeedOfLightKmPerMs = 299792.458 / 1000.0
	// FiberRefractiveIndex is the group index of standard single-mode
	// fiber at 1550 nm.
	FiberRefractiveIndex = 1.468
	// FiberKmPerMs is the propagation speed of light in fiber, km/ms.
	FiberKmPerMs = SpeedOfLightKmPerMs / FiberRefractiveIndex
)

// FiberLatencyMs returns the one-way propagation delay, in
// milliseconds, over km kilometres of fiber.
func FiberLatencyMs(km float64) float64 { return km / FiberKmPerMs }
