package lint

import (
	"go/token"
	"strings"
	"testing"
)

// TestEncodeJSONGolden pins the -json schema byte for byte: CI diffs
// finding artifacts across PRs, so any drift here is a breaking change
// and must bump JSONVersion.
func TestEncodeJSONGolden(t *testing.T) {
	findings := []Finding{
		{
			Check:   "noalloc-closure",
			Pos:     token.Position{Filename: "internal/core/core.go", Line: 42, Column: 7},
			Message: "make allocates in noalloc function Step",
		},
		{
			Check:   "noalloc-closure",
			Pos:     token.Position{Filename: "internal/sim/sim.go", Line: 9, Column: 3},
			Message: "call to allocating fmt.Sprintf inside the noalloc closure: sim.StepAll → core.dispatch → fmt.Sprintf",
			Chain:   []string{"sim.StepAll", "core.dispatch", "fmt.Sprintf"},
		},
	}
	const golden = `{
  "version": 1,
  "findings": [
    {
      "check": "noalloc-closure",
      "file": "internal/core/core.go",
      "line": 42,
      "col": 7,
      "message": "make allocates in noalloc function Step"
    },
    {
      "check": "noalloc-closure",
      "file": "internal/sim/sim.go",
      "line": 9,
      "col": 3,
      "message": "call to allocating fmt.Sprintf inside the noalloc closure: sim.StepAll → core.dispatch → fmt.Sprintf",
      "chain": [
        "sim.StepAll",
        "core.dispatch",
        "fmt.Sprintf"
      ]
    }
  ]
}
`
	var buf strings.Builder
	if err := EncodeJSON(&buf, findings); err != nil {
		t.Fatal(err)
	}
	if buf.String() != golden {
		t.Errorf("schema drift:\ngot:\n%s\nwant:\n%s", buf.String(), golden)
	}
}

// TestEncodeJSONEmpty pins that an empty finding set encodes as an
// empty array, never null — consumers index findings unconditionally.
func TestEncodeJSONEmpty(t *testing.T) {
	const golden = `{
  "version": 1,
  "findings": []
}
`
	var buf strings.Builder
	if err := EncodeJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.String() != golden {
		t.Errorf("empty set drift:\ngot:\n%s\nwant:\n%s", buf.String(), golden)
	}
}
