package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenVerify pins the whole run: the state counts README quotes
// (196 and 496), the rendered counter-example and the custom goal's
// time. The golden was written by the binary of the commit before witnesses
// were replayed through the network, so it also pins that the replay
// renders the same chart; regenerate with
// `go run ./examples/verify > examples/verify/testdata/verify.golden`.
func TestGoldenVerify(t *testing.T) {
	var buf bytes.Buffer
	if code := run(&buf); code != 0 {
		t.Fatalf("run = %d\n%s", code, buf.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", "verify.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("output differs from testdata/verify.golden:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}
