package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesHarness holds BENCHMARK.json and the harness's
// metric tables together: every name in one is in the other, with the
// same unit, direction and bound.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) > 8 || len(bj.EndToEnd) > 16 || len(bj.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics exceed 8/16/128",
			len(bj.Workloads), len(bj.EndToEnd), len(bj.PerLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.name, len(w.why))
		}
	}

	var contract []metricDef
	for _, d := range endToEnd {
		name(d.Name)
		if d.Contract {
			contract = append(contract, d)
		}
	}
	if len(bj.EndToEnd) != len(contract) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(bj.EndToEnd), len(contract))
	}
	for i, d := range contract {
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the harness %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}

	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		name(d.Name)
		got := bj.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the harness %+v", i, got, d)
		}
	}
}

// TestWorkloadsEndToEnd runs every workload at the tiny scale: every
// check passes, work is done, and the machine-readable line carries
// exactly the end-to-end metrics BENCHMARK.json lists.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		res, err := measure(runConfig{workload: w.name, seed: 1, tiny: true}, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", w.name, res.Failed, res.Attempted, res.Fails)
		}
		if len(res.PassS) != 2 || res.totalOps() == 0 {
			t.Errorf("%s: %d passes, %d ops", w.name, len(res.PassS), res.totalOps())
		}
		rep := &report{res: res, setups: []float64{res.SetupS}}
		line := rep.contract()
		for _, d := range endToEnd {
			if _, ok := line.Metrics[d.Name]; ok != d.Contract {
				t.Errorf("%s: metric %s present=%v in the result line, want %v", w.name, d.Name, ok, d.Contract)
			}
		}
		if !line.Correct {
			t.Errorf("%s: result line not correct", w.name)
		}
		var out bytes.Buffer
		rep.print(&out)
		for _, d := range endToEnd {
			if !strings.Contains(out.String(), d.Name) {
				t.Errorf("%s: report does not print %s", w.name, d.Name)
			}
		}
	}
}

// TestTracedRun runs every workload traced at the tiny scale, with every
// probe: each per-layer metric is emitted and no other, and the spans
// nest — every child inside its parent, one root per traced pass.
func TestTracedRun(t *testing.T) {
	probes, err := runProbes(1, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		res, err := measure(runConfig{workload: w.name, seed: 1, tiny: true, trace: true}, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		res.layerMetrics(probes)
		if res.Failed != 0 {
			t.Errorf("%s: %d checks failed: %v", w.name, res.Failed, res.Fails)
		}
		want := map[string]bool{}
		for _, d := range perLayer {
			want[d.Name] = true
			if _, ok := res.Layer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s not emitted", w.name, d.Name)
			}
		}
		for name := range res.Layer {
			if !want[name] {
				t.Errorf("%s: emitted metric %s is not in the per-layer table", w.name, name)
			}
		}

		byID := map[int]span{}
		passRoots := 0
		for _, s := range res.Spans {
			byID[s.ID] = s
			if s.EndNS < s.StartNS || s.Workload != w.name {
				t.Errorf("%s: malformed span %+v", w.name, s)
			}
			if s.Parent == 0 {
				if s.Layer != "bench" {
					t.Errorf("%s: root span %+v is not the harness's", w.name, s)
				}
				if s.Name == "pass" {
					passRoots++
				}
				continue
			}
			p, ok := byID[s.Parent]
			if !ok || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
				t.Errorf("%s: span %+v is not inside its parent %+v", w.name, s, p)
			}
		}
		if passRoots != len(res.TracedPassS) || passRoots == 0 {
			t.Errorf("%s: %d pass root spans for %d traced passes", w.name, passRoots, len(res.TracedPassS))
		}
		if len(res.Spans) <= passRoots+1 {
			t.Errorf("%s: no layer spans under the roots", w.name)
		}
	}
}

// TestGoldenMismatchCounts flips one byte of a recorded outcome and sees
// it counted as a failed check that names the differing field.
func TestGoldenMismatchCounts(t *testing.T) {
	cfg := runConfig{workload: "sim_cluster", seed: 1, tiny: true}
	recorded, err := measure(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	gold := map[string]string{}
	for _, d := range recorded.Digests {
		gold[d.Key] = d.Value
	}
	if len(gold) == 0 {
		t.Fatal("sim_cluster recorded no outcomes")
	}
	clean, err := measure(cfg, gold)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failed != 0 || clean.Attempted != recorded.Attempted+len(recorded.Digests) {
		t.Fatalf("matching golden: %d failed, %d attempted (recorded %d + %d outcomes)",
			clean.Failed, clean.Attempted, recorded.Attempted, len(recorded.Digests))
	}

	key := recorded.Digests[0].Key
	flipped := []byte(gold[key])
	i := strings.Index(gold[key], "sent=") + len("sent=")
	flipped[i] ^= 1
	gold[key] = string(flipped)
	dirty, err := measure(cfg, gold)
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{res: dirty, setups: []float64{dirty.SetupS}}
	if share := rep.e2e()["fail_share"].v; share <= 0 || dirty.Failed == 0 {
		t.Fatalf("flipped golden: fail_share %v, %d failed", share, dirty.Failed)
	}
	if len(dirty.Fails) == 0 || !strings.Contains(dirty.Fails[0], "sent=") {
		t.Fatalf("failure does not name the differing field: %v", dirty.Fails)
	}
	if rep.contract().Correct {
		t.Fatal("result line is correct despite a failed check")
	}
}

func TestVerdict(t *testing.T) {
	ops := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	rss := metricDef{Name: "peak_rss_mb", Better: "lower", Bound: 0.10, Slack: 8}
	fail := metricDef{Name: "fail_share", Better: "lower"}
	for _, tc := range []struct {
		d    metricDef
		a, b value
		want string
	}{
		{ops, value{100, 98, 1, 5}, value{85, 84, 1, 5}, "worse"},
		{ops, value{100, 98, 1, 5}, value{95, 93, 1, 5}, "same"},
		{ops, value{100, 98, 1, 5}, value{120, 118, 1, 5}, "better"},
		{ops, value{100, 98, 8, 5}, value{85, 84, 8, 5}, "unresolved"},
		{rss, single(100), single(117), "same"},
		{rss, single(100), single(119), "worse"},
		{fail, value{n: 10}, value{n: 10}, "same"},
		{fail, value{n: 10}, value{v: 0.1, median: 0.1, n: 10}, "worse"},
	} {
		if got := verdict(tc.d, tc.a, tc.b, tc.d.Slack); got != tc.want {
			t.Errorf("%s %v -> %v: %s, want %s", tc.d.Name, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestCompareFiles runs -compare over result files as the harness writes
// them: a set of runs against itself is clean, a slower side is worse.
func TestCompareFiles(t *testing.T) {
	res := &result{
		Workload: "mc_sweep", Unit: "trials", PassS: []float64{1, 1.01, 0.99},
		PassOps: []uint64{1000, 1000, 1000}, Mallocs: 30, Attempted: 9, PeakRSSMB: 10,
	}
	write := func(name string, r *result) string {
		rep := &report{res: r, setups: []float64{0.01, 0.011, 0.012}}
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSON(path, rep.rows(1, environment())); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", res)
	slow := *res
	slow.PassS = []float64{1.5, 1.51, 1.49}
	b := write("b.json", &slow)

	var out bytes.Buffer
	worse, err := compareFiles(&out, a+","+a, a)
	if err != nil || worse {
		t.Fatalf("a set against itself: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	worse, err = compareFiles(&out, a, b)
	if err != nil || !worse {
		t.Fatalf("slower side: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "ops_per_s") || !strings.Contains(out.String(), "worse") {
		t.Fatalf("comparison does not name the regression:\n%s", out.String())
	}
}

func TestHighPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := highPercentile(xs); p != 90 || v != 90 {
		t.Errorf("100 samples: p%v = %v, want p90 = 90", p, v)
	}
	if v, p := highPercentile(xs[:5]); p != 100 || v != 5 {
		t.Errorf("5 samples: p%v = %v, want the maximum", p, v)
	}
	if m := mad([]float64{1, 2, 3, 4, 100}); m != 1 {
		t.Errorf("mad = %v, want 1", m)
	}
}
