package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// minPasses is the least number of timed passes a run makes, however
// short -seconds is; below it a median over passes means little.
const minPasses = 5

// minTracePairs is the least number of untraced/traced pass pairs a
// traced run makes, and traceShare the share of -seconds it spends on
// them; the rest of a traced run goes to the per-layer probes.
const (
	minTracePairs = 1
	traceShare    = 0.3
)

// runConfig is the input of one measurement.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	// tiny selects the unit-test scale: small inputs, two passes.
	tiny  bool
	trace bool
	// setupOnly stops after set-up (extra set-up samples).
	setupOnly bool
	// startUnixNS is the parent's clock just before it started this
	// process; 0 when measuring in-process.
	startUnixNS int64
}

// result is what one measurement process reports.
type result struct {
	Workload string `json:"workload"`
	Unit     string `json:"unit"`
	// SetupS is process start (or call, in-process) to ready for the
	// warm-up pass.
	SetupS  float64 `json:"setup_s"`
	WarmupS float64 `json:"warmup_s"`
	// PassS and PassOps are the timed untraced passes.
	PassS   []float64 `json:"pass_s"`
	PassOps []uint64  `json:"pass_ops"`
	// TracedPassS are the traced passes of a traced run, interleaved
	// with the untraced ones.
	TracedPassS []float64 `json:"traced_pass_s,omitempty"`
	// Mallocs is the heap allocation count over the untraced passes.
	Mallocs   uint64   `json:"mallocs"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Fails     []string `json:"fails,omitempty"`
	PeakRSSMB float64  `json:"peak_rss_mb"`
	GCCycles  uint32   `json:"gc_cycles"`
	Digests   []digest `json:"digests,omitempty"`
	// Counts are exact per-pass counts, averaged over the traced passes.
	Counts map[string]float64 `json:"counts,omitempty"`
	Spans  []span             `json:"spans,omitempty"`
	// Layer holds the per-layer metrics of a traced run.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// absorb folds one pass's checks and digests into the result.
func (r *result) absorb(out passOut) {
	r.Attempted += out.attempted
	r.Failed += out.failed
	for _, f := range out.fails {
		if len(r.Fails) < 16 {
			r.Fails = append(r.Fails, f)
		}
	}
	r.Digests = append(r.Digests, out.digests...)
}

// measure runs one workload in this process: set-up, one warm-up pass,
// then timed passes for cfg.seconds (at least minPasses), pass i on
// seed+i. A traced run instead alternates untraced and traced passes;
// its caller then runs the layer probes and calls layerMetrics.
func measure(cfg runConfig, gold map[string]string) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &result{Workload: w.name, Unit: w.unit}
	tr := &tracer{workload: w.name, on: cfg.trace}

	startNS := nowNS()
	root := tr.begin("bench", "setup")
	inst, err := w.setup(cfg.seed, cfg.tiny, tr)
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	if cfg.startUnixNS != 0 {
		res.SetupS = seconds(unixNS() - cfg.startUnixNS)
	} else {
		res.SetupS = seconds(nowNS() - startNS)
	}
	if cfg.setupOnly {
		return res, nil
	}

	tr.on = false
	t := nowNS()
	res.absorb(inst.pass(-1, cfg.seed, tr))
	res.WarmupS = seconds(nowNS() - t)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gcBefore := ms.NumGC
	// untraced runs one timed pass with tracing off.
	untraced := func(i int) {
		// Every timed pass starts from a collected heap, as a fresh
		// process would, so passes are alike whatever ran before them.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		mallocs := ms.Mallocs
		t := nowNS()
		out := inst.pass(i, cfg.seed+int64(i), tr)
		dt := nowNS() - t
		runtime.ReadMemStats(&ms)
		res.Mallocs += ms.Mallocs - mallocs
		res.PassS = append(res.PassS, seconds(dt))
		res.PassOps = append(res.PassOps, out.ops)
		res.absorb(out)
	}

	loopStart := nowNS()
	elapsed := func() float64 { return seconds(nowNS() - loopStart) }
	if !cfg.trace {
		least := minPasses
		if cfg.tiny {
			least = 2
		}
		for i := 0; i < least || elapsed() < cfg.seconds; i++ {
			untraced(i)
		}
	} else {
		res.Counts = map[string]float64{}
		pairs := 0
		for ; pairs < minTracePairs || (!cfg.tiny && elapsed() < cfg.seconds*traceShare); pairs++ {
			untraced(2 * pairs)
			tr.on = true
			root := tr.begin("bench", "pass")
			t := nowNS()
			out := inst.pass(2*pairs+1, cfg.seed+int64(2*pairs+1), tr)
			dt := nowNS() - t
			tr.end(root)
			tr.on = false
			res.TracedPassS = append(res.TracedPassS, seconds(dt))
			res.absorb(out)
			for name, v := range out.counts {
				res.Counts[name] += v
			}
		}
		for name := range res.Counts {
			res.Counts[name] /= float64(pairs)
		}
		res.Spans = tr.spans
	}
	runtime.ReadMemStats(&ms)
	res.GCCycles = ms.NumGC - gcBefore
	checkGolden(res, gold)
	res.PeakRSSMB = peakRSSMB()
	return res, nil
}

// checkGolden compares each digest the golden file pins; a mismatch is a
// failed check that names the differing fields.
func checkGolden(res *result, gold map[string]string) {
	for _, d := range res.Digests {
		want, pinned := gold[d.Key]
		if !pinned {
			continue
		}
		res.Attempted++
		if d.Value == want {
			continue
		}
		res.Failed++
		if len(res.Fails) < 16 {
			res.Fails = append(res.Fails, fmt.Sprintf("golden %s: %s", d.Key, diffFields(want, d.Value)))
		}
	}
}

// diffFields lists the "field=value" words on which got departs from want.
func diffFields(want, got string) string {
	w, g := strings.Fields(want), strings.Fields(got)
	if len(w) != len(g) {
		return fmt.Sprintf("got %q, want %q", got, want)
	}
	var diffs []string
	for i := range w {
		if w[i] != g[i] {
			diffs = append(diffs, fmt.Sprintf("got %s, want %s", g[i], w[i]))
		}
	}
	return strings.Join(diffs, "; ")
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM),
// 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// opsPerS returns the per-pass throughputs of the untraced passes.
func (r *result) opsPerS() []float64 {
	out := make([]float64, len(r.PassS))
	for i, s := range r.PassS {
		out[i] = float64(r.PassOps[i]) / s
	}
	return out
}

// totalOps is the work done over the untraced passes.
func (r *result) totalOps() uint64 {
	var n uint64
	for _, o := range r.PassOps {
		n += o
	}
	return n
}

// allocsPerOp is heap allocations per unit of work over the untraced
// passes.
func (r *result) allocsPerOp() float64 {
	if n := r.totalOps(); n > 0 {
		return float64(r.Mallocs) / float64(n)
	}
	return 0
}

// layerMetrics completes a traced run with the per-layer metrics: the
// probes' unit costs and counts, the harness's own view of the passes,
// and the share of a traced pass each layer accounts for.
func (r *result) layerMetrics(probes *probeCtx) {
	r.Layer = make(map[string]float64, len(perLayer))
	for name, v := range probes.m {
		r.Layer[name] = v
	}
	passMS, tracedMS := toMS(r.PassS), toMS(r.TracedPassS)
	hi, pct := highPercentile(passMS)
	rates := r.opsPerS()
	m := r.Layer
	m["bench.passes"] = float64(len(passMS))
	m["bench.pass_ms_p50"] = median(passMS)
	m["bench.pass_ms_hi"] = hi
	m["bench.pass_hi_pct"] = pct
	m["bench.ops_mad_share"] = mad(rates) / median(rates)
	m["bench.warmup_s"] = r.WarmupS
	m["bench.gc_cycles"] = float64(r.GCCycles)
	m["bench.allocs_per_op"] = r.allocsPerOp()
	// Fastest against fastest, for the reason ops_per_s is the fastest pass.
	m["bench.trace_overhead"] = slices.Min(tracedMS)/slices.Min(passMS) - 1
	attribute(r, probes.aux, median(tracedMS)*1e6)
}
