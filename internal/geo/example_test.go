package geo_test

import (
	"fmt"

	"repro/internal/geo"
)

func ExampleSlotGrid_KNearest() {
	g := geo.NewSlotGrid(geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 1000, Y: 1000}), 100, 1)
	g.Insert(0, 1, geo.Point{X: 100, Y: 100})
	g.Insert(0, 2, geo.Point{X: 150, Y: 100})
	g.Insert(0, 3, geo.Point{X: 900, Y: 900})

	for _, n := range g.KNearest(0, geo.Point{X: 120, Y: 100}, 2) {
		fmt.Printf("car %d at %.0f m\n", n.Slot, n.Dist)
	}
	// Output:
	// car 1 at 20 m
	// car 2 at 30 m
}

func ExampleProjection() {
	proj := geo.NewProjection(geo.LatLng{Lat: 40.7549, Lng: -73.9840})
	p := proj.ToPlane(geo.LatLng{Lat: 40.7580, Lng: -73.9855})
	fmt.Printf("Times Square is %.0f m east, %.0f m north of midtown center\n", p.X, p.Y)
	// Output:
	// Times Square is -126 m east, 345 m north of midtown center
}

func ExamplePolygon_Contains() {
	area := geo.RectPolygon(geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 500, Y: 500}))
	fmt.Println(area.Contains(geo.Point{X: 250, Y: 250}))
	fmt.Println(area.Contains(geo.Point{X: 600, Y: 250}))
	// Output:
	// true
	// false
}
