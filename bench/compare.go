package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// side is one side of a comparison: for each workload and end-to-end
// metric, the value over the side's runs and their spread.
type side map[string]map[string]value

// loadSide reads a comma-separated set of result files. With one file a
// metric keeps the run's own value and MAD; with several, the median and
// MAD are taken over the runs' values.
func loadSide(paths string) (side, error) {
	perRun := map[string]map[string][]row{}
	files := strings.Split(paths, ",")
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rows []row
		if err := json.Unmarshal(data, &rows); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range rows {
			if r.Layer != e2eLayer {
				continue
			}
			if perRun[r.Workload] == nil {
				perRun[r.Workload] = map[string][]row{}
			}
			perRun[r.Workload][r.Metric] = append(perRun[r.Workload][r.Metric], r)
		}
	}
	out := side{}
	for workload, metrics := range perRun {
		out[workload] = map[string]value{}
		for metric, rows := range metrics {
			if len(rows) == 1 {
				out[workload][metric] = value{rows[0].Value, rows[0].Median, rows[0].MAD, rows[0].N}
				continue
			}
			values := make([]float64, len(rows))
			for i, r := range rows {
				values[i] = r.Value
			}
			out[workload][metric] = medianOf(values)
		}
	}
	return out, nil
}

// verdict compares one metric: b against baseline a. The allowance is
// the metric's bound as a share of a plus its absolute slack. A spread
// (the two sides' MADs together) wider than the allowance cannot resolve
// a difference of that size, so the verdict is "unresolved" rather than
// "same".
func verdict(d metricDef, a, b value, slack float64) string {
	allowance := d.Bound*math.Abs(a.v) + slack
	worse := b.v - a.v
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.mad+b.mad > allowance:
		return "unresolved"
	case worse > allowance:
		return "worse"
	case -worse > allowance:
		return "better"
	default:
		return "same"
	}
}

// compareFiles prints, per workload and end-to-end metric, how side b
// stands against side a, and reports whether anything got worse.
func compareFiles(w io.Writer, pathsA, pathsB string) (anyWorse bool, err error) {
	a, err := loadSide(pathsA)
	if err != nil {
		return false, err
	}
	b, err := loadSide(pathsB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %9s  %s\n", "workload", "metric", "a", "b", "change", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, okA := a[wl.name][d.Name]
			vb, okB := b[wl.name][d.Name]
			if !okA || !okB {
				continue
			}
			slack := d.Slack
			if d.Name == "allocs_per_op" {
				// One allocation per pass.
				if ops := a[wl.name][opsPerPass].v; ops > 0 {
					slack = 1 / ops
				}
			}
			v := verdict(d, va, vb, slack)
			anyWorse = anyWorse || v == "worse"
			change := "n/a"
			if va.v != 0 {
				change = fmt.Sprintf("%+.1f%%", (vb.v/va.v-1)*100)
			}
			fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %9s  %s\n", wl.name, d.Name, va.v, vb.v, change, v)
		}
	}
	return anyWorse, nil
}
