// Command bench is the repository's layered benchmark: six workloads,
// each measured end to end in a child process of its own, plus a traced
// mode that adds spans around every harness call into a layer and an
// isolated probe per layer. See README.md in this directory.
//
//	go run ./bench                                  # all six workloads, end to end
//	go run ./bench -trace 1                         # all six, traced: per-layer metrics
//	go run ./bench -workload mc_sweep -seed 3       # one workload
//	go run ./bench -compare a.json b.json           # better / same / worse / unresolved
//	go run ./bench -update-golden                   # re-pin bench/golden.json
//
// Run it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
)

const (
	outDir     = "bench/out"
	goldenPath = "bench/golden.json"
	// startEnv carries the parent's clock reading, taken just before it
	// starts a child, so set-up time includes process start and package
	// initialisation.
	startEnv = "BENCH_START_UNIX_NS"
)

func main() {
	var (
		name         = flag.String("workload", "", "run only this workload (default: all six)")
		seed         = flag.Int64("seed", 1, "the only workload input: pass i runs on seed+i")
		secs         = flag.Float64("seconds", 10, "seconds of timed passes per workload (at least 5 passes are made)")
		trace        = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: end-to-end metrics")
		compare      = flag.Bool("compare", false, "compare two result files (or comma-separated sets of them): -compare a.json b.json")
		updateGolden = flag.Bool("update-golden", false, "re-record bench/golden.json for seed 1")
		child        = flag.String("child", "", "internal: measure in this process (measure, setup)")
	)
	flag.Parse()
	if err := run(*name, *seed, *secs, *trace != 0, *compare, *updateGolden, *child); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, secs float64, trace, compare, updateGolden bool, child string) error {
	switch {
	case compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return err
		}
		if worse {
			os.Exit(1)
		}
		return nil
	case child != "":
		return runChild(name, seed, secs, trace, child == "setup")
	case updateGolden:
		return recordGolden(secs)
	}

	var names []string
	for _, w := range workloads {
		if name == "" || name == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", name)
	}
	env := environment()
	var rows []row
	var spans []span
	var last contractLine
	for _, n := range names {
		rep, err := runWorkload(n, seed, secs, trace)
		if err != nil {
			return err
		}
		rep.print(os.Stdout)
		rows = append(rows, rep.rows(seed, env)...)
		spans = append(spans, rep.res.Spans...)
		last = rep.contract()
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("run-%d-%d.json", unixNS()/1e9, os.Getpid()))
	if err := writeJSON(path, rows); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if trace {
		tracePath := filepath.Join(outDir, "trace.json")
		if err := writeJSON(tracePath, spans); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d spans)\n", tracePath, len(spans))
	}
	if name != "" {
		// The last line of a single-workload run is its machine-readable
		// result.
		line, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// runChild measures in this process and prints the result as one JSON
// line for the parent.
func runChild(name string, seed int64, secs float64, trace, setupOnly bool) error {
	start, err := strconv.ParseInt(os.Getenv(startEnv), 10, 64)
	if err != nil {
		return fmt.Errorf("%s: %w", startEnv, err)
	}
	gold, err := loadGolden()
	if err != nil {
		return err
	}
	res, err := measure(runConfig{
		workload: name, seed: seed, seconds: secs, trace: trace,
		setupOnly: setupOnly, startUnixNS: start,
	}, gold)
	if err != nil {
		return err
	}
	if trace {
		probes, err := runProbes(seed, false)
		if err != nil {
			return err
		}
		res.layerMetrics(probes)
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// startChild runs one measurement in a fresh process, so that its peak
// RSS, heap and caches are its own, and waits for it to end.
func startChild(mode, name string, seed int64, secs float64, trace bool) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", traceArg)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), startEnv+"="+strconv.FormatInt(unixNS(), 10))
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s child for %s: %w", mode, name, err)
	}
	var res result
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s child for %s: %w", mode, name, err)
	}
	return &res, nil
}

// Extra set-up samples: a child per sample, until there are
// maxSetupSamples or, past minSetupSamples, setupBudgetS has been spent.
const (
	minSetupSamples = 3
	maxSetupSamples = 9
	setupBudgetS    = 2.0
)

// runWorkload measures one workload: the measuring child, and for an
// end-to-end run further children that only set up.
func runWorkload(name string, seed int64, secs float64, trace bool) (*report, error) {
	res, err := startChild("measure", name, seed, secs, trace)
	if err != nil {
		return nil, err
	}
	rep := &report{res: res, trace: trace, setups: []float64{res.SetupS}}
	if trace {
		return rep, nil
	}
	spent := 0.0
	for len(rep.setups) < maxSetupSamples && (len(rep.setups) < minSetupSamples || spent < setupBudgetS) {
		s, err := startChild("setup", name, seed, secs, false)
		if err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, s.SetupS)
		spent += s.SetupS
	}
	return rep, nil
}

// envInfo is what every result row records about the machine and build.
type envInfo struct {
	NumCPU, GOMAXPROCS int
	Go, Commit         string
}

func environment() envInfo {
	env := envInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
