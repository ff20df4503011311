package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkGolden runs hblts with args and compares stdout against
// testdata/<name>.golden. The goldens were written by the binary of the
// commit before hblts had a testable run, so they pin "the exports did not
// move"; a deliberate change regenerates them with
// `go run ./cmd/hblts <args> > cmd/hblts/testdata/<name>.golden`.
func checkGolden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out, errs bytes.Buffer
	if code := run(args, &out, &errs); code != 0 || errs.Len() != 0 {
		t.Fatalf("run(%v) = %d\n%s%s", args, code, out.String(), errs.String())
	}
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("hblts %v differs from testdata/%s.golden:\ngot:\n%s\nwant:\n%s", args, name, out.Bytes(), want)
	}
}

// Figure 1 of the analysis: isolated p[0], weak-trace reduced.
func TestGoldenP0Text(t *testing.T) { checkGolden(t, "p0_text", "-proc", "p0") }

// The Aldebaran export (mc.LTS.WriteAUT) of Figure 2.
func TestGoldenP1AUT(t *testing.T) { checkGolden(t, "p1_aut", "-proc", "p1", "-format", "aut") }

// Hidden ticks are tau, which the Aldebaran export writes as CADP's "i".
func TestGoldenP1AUTTau(t *testing.T) {
	checkGolden(t, "p1_aut_tau", "-proc", "p1", "-format", "aut", "-hide-tick", "-no-reduce")
}

// Hidden ticks are tau, which the weak-trace reduction closes over: the
// reduced Figure 2 as text, and the reduced Figure 1 as Graphviz. These two
// goldens were written by the binary of the commit before labels were typed.
func TestGoldenP1TextTau(t *testing.T) { checkGolden(t, "p1_text_tau", "-proc", "p1", "-hide-tick") }

func TestGoldenP0DOTTau(t *testing.T) {
	checkGolden(t, "p0_dot_tau", "-proc", "p0", "-hide-tick", "-format", "dot")
}

// The Graphviz export (mc.LTS.WriteDOT) of the unreduced graph.
func TestGoldenP0DOTFull(t *testing.T) {
	checkGolden(t, "p0_dot_full", "-proc", "p0", "-format", "dot", "-no-reduce")
}

// TestBadInputRejected: a bad flag, process or format fails with one
// diagnostic on stderr and nothing on stdout.
func TestBadInputRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-nope"}, 2, "-nope"},
		{[]string{"-proc", "p9"}, 1, `hblts: unknown process "p9"`},
		{[]string{"-format", "xml"}, 1, `hblts: unknown format "xml"`},
		{[]string{"-tmin", "0"}, 1, "hblts:"},
	} {
		var out, errs bytes.Buffer
		if code := run(tc.args, &out, &errs); code != tc.code {
			t.Errorf("run(%q) = %d, want %d\n%s", tc.args, code, tc.code, errs.String())
		}
		if out.Len() != 0 || !strings.Contains(errs.String(), tc.want) {
			t.Errorf("run(%q): stdout %q, stderr %q; want only %q on stderr", tc.args, out.String(), errs.String(), tc.want)
		}
	}
}
