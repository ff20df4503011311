package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenJSON pins protocol-level outcomes for the default seed: digest
// key to "field=value …" line. State counts are deliberately not pinned:
// a later reduction that explores fewer states is a speed-up, not a
// failure.
//
//go:embed golden.json
var goldenJSON []byte

func loadGolden() (map[string]string, error) {
	gold := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &gold); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return gold, nil
}

// recordGolden re-runs the workloads whose outcomes depend on the seed,
// on seed 1, and writes the digests of every pass they make; a longer
// -seconds pins more pass seeds.
func recordGolden(secs float64) error {
	gold := map[string]string{}
	for _, name := range []string{"sim_cluster", "mc_sweep", "fleet_epochs"} {
		res, err := measure(runConfig{workload: name, seed: 1, seconds: secs}, nil)
		if err != nil {
			return err
		}
		if res.Failed > 0 {
			return fmt.Errorf("%s: %d checks failed, not recording: %v", name, res.Failed, res.Fails)
		}
		for _, d := range res.Digests {
			gold[d.Key] = d.Value
		}
		fmt.Printf("%s: %d outcomes pinned\n", name, len(res.Digests))
	}
	return writeJSON(goldenPath, gold)
}
