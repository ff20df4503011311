// Package closure is hbvet golden-test input for the interprocedural
// noalloc closure proof. Root is the annotated root; every want comment
// pins a finding whose message carries the full call chain, including
// the seeded mutants one and two call levels below the root.
package closure

import "errors"

//hbvet:noalloc
func Root(n int) int {
	x := direct(n)
	x += mid(n)
	x += dyn(pure)
	x += boundary(n)
	x += sitesup(n)
	x += trailer(n)
	x += annotated(n)
	var st stack[int]
	st.push(n)
	x += firstOf(st.items)
	if x < 0 {
		x += coldpath(n)
	}
	return x
}

// direct is the depth-1 mutant: an allocating helper one call below the
// root, reported with the two-hop chain.
func direct(n int) int {
	buf := make([]int, n) // want "make allocates in function direct — reachable from noalloc root: closure.Root → closure.direct"
	return len(buf) + n
}

// mid is allocation-free itself; helper below it is the depth-2 mutant.
func mid(n int) int {
	return helper(n) + 1
}

// helper allocates two calls below the root via a known-allocating
// stdlib callee, reported with the full three-hop chain.
func helper(n int) int {
	err := errors.New("helper underflow") // want "call to allocating errors.New inside the noalloc closure: closure.Root → closure.mid → closure.helper → errors.New"
	if n < 0 && err != nil {
		return 0
	}
	return n
}

// dyn calls through a function value: the callee set is unprovable.
func dyn(f func() int) int {
	return f() // want "dynamic call through a function value inside the noalloc closure (closure.Root → closure.dyn)"
}

func pure() int { return 1 }

// boundary is an accepted allocation boundary: the declaration-level
// directive cuts traversal, so neither its own body nor anything
// reachable only through it is reported.
//
//lint:allow noalloc-closure fixture boundary: this sink allocates by design
func boundary(n int) int {
	s := make([]int, n)
	return len(s) + behindBoundary(n)
}

// behindBoundary is reachable only through the boundary: excluded from
// the proof despite its allocation.
func behindBoundary(n int) int {
	b := make([]byte, n)
	return len(b)
}

// trailer carries a same-line directive: positionally it covers the
// declaration line, but only a doc-comment directive marks a boundary,
// so the body still reports.
func trailer(n int) int { //lint:allow noalloc-closure fixture: same-line directive stays site-level
	x := n + 1
	b := make([]byte, x) // want "make allocates in function trailer — reachable from noalloc root: closure.Root → closure.trailer"
	return len(b)
}

// sitesup carries a justified site-level allow: the directive sanctions
// only the literal finding on the next line and must not exempt the
// callee sharing its body — deeper still reports.
func sitesup(n int) int {
	//lint:allow noalloc-closure fixture: this one retry buffer is justified
	buf := make([]int, n)
	return len(buf) + deeper(n)
}

func deeper(n int) int {
	b := make([]byte, n) // want "make allocates in function deeper — reachable from noalloc root: closure.Root → closure.sitesup → closure.deeper"
	return len(b)
}

// annotated carries its own //hbvet:noalloc: it is a root in its own
// right, so its body site is reported once, without a chain from Root.
//
//hbvet:noalloc
func annotated(n int) int {
	s := make([]int, n) // want "make allocates in noalloc function annotated"
	return len(s)
}

// coldpath justifies a known-allocating callee at its call site.
func coldpath(n int) int {
	//lint:allow noalloc-closure fixture: cold error path
	err := errors.New("cold")
	if err != nil {
		return -n
	}
	return n
}

// stack and firstOf are generic: a call names an instantiation, and the
// edge must land on the declaration it came from or the body below
// would hide from the proof.
type stack[T any] struct{ items []T }

func (s *stack[T]) push(v T) {
	if s.items == nil {
		s.items = make([]T, 0, 8) // want "make allocates in function push — reachable from noalloc root: closure.Root → closure.(*stack).push"
	}
	s.items = append(s.items, v)
}

func firstOf[T any](xs []T) T {
	spare := make([]T, 1) // want "make allocates in function firstOf — reachable from noalloc root: closure.Root → closure.firstOf"
	return append(spare, xs...)[1]
}
