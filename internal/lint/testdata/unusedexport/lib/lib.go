// Package lib is the unused-export fixture's library: every way an export
// counts as used by a command, and the ways it does not.
package lib

// Called is reached by a plain call from main.
func Called() {}

// Shape is dispatched through by main.
type Shape interface{ Area() int }

// Square's Area is reached only through the Shape interface.
type Square struct{}

// Area implements Shape.
func (Square) Area() int { return 1 }

// Counter's Inc is reached only as a method value.
type Counter struct{ n int }

// Inc increments the counter.
func (c *Counter) Inc() { c.n++ }

// Box is generic; main takes Get from an instantiation as a method value.
type Box[T any] struct{ v T }

// Get is reached through its instantiated method's origin.
func (b Box[T]) Get() T { return b.v }

// Seed is reached only from a package-level initialiser of main.
func Seed() int { return 7 }

// Level is printed with fmt, which calls String where no edge can follow.
type Level int

// String implements fmt.Stringer.
func (l Level) String() string { return "level" }

// Orphan is reached by nothing.
func Orphan() {} // want "exported lib.Orphan is reached from no cmd/ or examples/ main"

// helper is unexported, so never judged.
func helper() {}

// Config is a knob struct: main sets a field by a composite-literal
// key, an assignment and an address-of; only the tests set TestOnly.
type Config struct {
	Keyed    int
	Assigned int
	Flag     int
	TestOnly int // want "exported field Config.TestOnly is set by no code"
	internal int
}

// BenchShim is held in place by the benchmark alone.
//
//lint:allow unused-export bench/ is its only caller
func BenchShim() {}
