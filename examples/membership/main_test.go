package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenMembership pins the whole churn run: three joins, a graceful
// leave that disturbs nobody, and a crash that winds the network down. The
// simulator runs on a fixed seed, so the output is deterministic. The golden
// was written by the binary of the commit before the example had a testable
// run; regenerate with
// `go run ./examples/membership > examples/membership/testdata/membership.golden`.
func TestGoldenMembership(t *testing.T) {
	var buf bytes.Buffer
	if code := run(&buf); code != 0 {
		t.Fatalf("run = %d\n%s", code, buf.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "membership.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("output differs from testdata/membership.golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
