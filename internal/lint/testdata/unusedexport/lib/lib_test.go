package lib

import "testing"

// Tests are not loaded, so what they set and call does not count.
func TestConfig(t *testing.T) {
	Orphan()
	_ = Config{TestOnly: 1}
}
