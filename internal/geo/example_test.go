package geo_test

import (
	"fmt"

	"intertubes/internal/geo"
)

func ExamplePoint_DistanceKm() {
	nyc := geo.Point{Lat: 40.7128, Lon: -74.0060}
	chi := geo.Point{Lat: 41.8781, Lon: -87.6298}
	fmt.Printf("%.0f km\n", nyc.DistanceKm(chi))
	// Output: 1144 km
}

func ExampleFiberLatencyMs() {
	// The paper's §5.3 rule of thumb: 100 microseconds of one-way
	// delay is about 20 km of fiber.
	fmt.Printf("%.1f km per 100 us\n", 0.1*geo.FiberKmPerMs)
	fmt.Printf("%.2f ms across 1000 km\n", geo.FiberLatencyMs(1000))
	// Output:
	// 20.4 km per 100 us
	// 4.90 ms across 1000 km
}

func ExamplePolyline_Simplify() {
	dense := geo.GreatCircle(geo.Point{Lat: 40, Lon: -100}, geo.Point{Lat: 41, Lon: -95}, 40)
	slim := dense.Simplify(5)
	fmt.Println(len(dense) > len(slim))
	// Output: true
}
