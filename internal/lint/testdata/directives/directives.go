// Package directives is hbvet golden-test input for //lint:allow
// hygiene: a justified suppression is silent; an unjustified one, an
// unused one and one naming no registered check are findings of their
// own. The expectations live in the
// driver test (TestDirectiveHygiene) because a "want" comment cannot
// share a line with the directive it describes.
package directives

import "time"

func justified() time.Time {
	//lint:allow determinism fixture justification
	return time.Now()
}

func unjustified() time.Time {
	//lint:allow determinism
	return time.Now()
}

func unused() int {
	//lint:allow determinism nothing on the next line reads a clock
	return 1
}

func retired() int {
	//lint:allow determinism-taint a check folded into determinism
	return 2
}
