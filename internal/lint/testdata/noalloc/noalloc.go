// Package noalloc is hbvet golden-test input for the //hbvet:noalloc
// contract: annotated functions are rejected on likely allocation sites;
// unannotated functions may allocate freely. This doubles as the
// regression test for "a deliberately introduced allocation in an
// annotated function is caught".
package noalloc

import "fmt"

type point struct{ x, y int }

//hbvet:noalloc
func cleanHotPath(xs []int, buf []int) []int {
	total := 0
	for _, x := range xs {
		total += x
	}
	buf = append(buf, total) // growing the recycled buffer in place is the sanctioned shape
	return buf
}

//hbvet:noalloc
func makes(n int) []int {
	return make([]int, n) // want "make allocates in noalloc function makes"
}

// makesDocumented carries the directive where gofmt moves it: the last
// line of the doc comment, behind a blank comment line.
//
//hbvet:noalloc
func makesDocumented(n int) []int {
	return make([]int, n) // want "make allocates in noalloc function makesDocumented"
}

//hbvet:noalloc
func news() *point {
	return new(point) // want "new allocates in noalloc function news"
}

//hbvet:noalloc
func escapingLiteral() *point {
	return &point{1, 2} // want "address-taken composite literal allocates in noalloc function escapingLiteral"
}

//hbvet:noalloc
func sliceLiteral() []int {
	return []int{1, 2, 3} // want "literal allocates its backing store in noalloc function sliceLiteral"
}

//hbvet:noalloc
func escapingClosure(n int) func() int {
	return func() int { return n } // want "closure in noalloc function escapingClosure likely escapes and allocates"
}

//hbvet:noalloc
func immediateClosureIsFine(n int) int {
	return func() int { return n * 2 }() // invoked in place: inlined, never escapes
}

//hbvet:noalloc
func boxes(err error, n int) error {
	if n > 0 {
		return fmt.Errorf("n = %d", n) // want "boxes a int" "variadic call allocates its argument slice" "call to allocating fmt.Errorf"
	}
	return err
}

//hbvet:noalloc
func concatenates(a, b string) string {
	return a + b // want "string concatenation allocates in noalloc function concatenates"
}

//hbvet:noalloc
func appendsAcross(dst, src []int) []int {
	out := append(dst, src...) // want "append result lands in a different slice than its source"
	return out
}

//hbvet:noalloc
func suppressedColdPath(n int) error {
	if n < 0 {
		//lint:allow noalloc-closure golden-test fixture: cold error path
		return fmt.Errorf("negative: %d", n)
	}
	return nil
}

// unannotated may allocate: the contract is opt-in per function.
func unannotated(n int) []int {
	return make([]int, n)
}
