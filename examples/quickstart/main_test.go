package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenQuickstart pins the whole crash run: steady state, p[1]'s
// crash, p[0]'s accelerated detection and the detection bound. The
// simulator runs on a fixed seed, so the output is deterministic. The golden
// was written by the binary of the commit before the example had a testable
// run; regenerate with
// `go run ./examples/quickstart > examples/quickstart/testdata/quickstart.golden`.
func TestGoldenQuickstart(t *testing.T) {
	var buf bytes.Buffer
	if code := run(&buf); code != 0 {
		t.Fatalf("run = %d\n%s", code, buf.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "quickstart.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("output differs from testdata/quickstart.golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
