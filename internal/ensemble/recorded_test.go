package ensemble

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/netem"
)

// TestEnsembleRecordedDigests pins fast mode — its splitmix64 draws and the
// event order that spends them — where the differentials cannot: they run
// in Exact mode against the simulator. Each of the six Variants(3), plain
// and with the §6.1 fix, runs 200 trials at one Q2 point (crash with
// jitter, jittered delays) and one Q3 point (10% loss, zero delay, so
// same-tick deliveries), and the row records the campaign's aggregates and
// a hash of its per-trial Outcomes. The values were recorded before the
// generic kernel ran a trial from one stack-held view, so they hold every
// later change to either kernel to the same draws and the same order.
func TestEnsembleRecordedDigests(t *testing.T) {
	want := map[string]string{
		"binary/fixed=false/q2":    "rounds=2991 sent=4782 detected=200 missed=0 false=200 coord=200 delay={Count:200 MeanV:38.004999999999995 M2:4078.995 MinV:30 MaxV:46} ttf={Count:200 MeanV:205.27999999999997 M2:2200.32 MinV:190 MaxV:206} outcomes=5f1fb87d48b2a76f",
		"binary/fixed=false/q3":    "rounds=49125 sent=93114 detected=0 missed=0 false=49 coord=49 delay={Count:0 MeanV:0 M2:0 MinV:0 MaxV:0} ttf={Count:49 MeanV:2056.408163265306 M2:5.73464158367347e+07 MinV:70 MaxV:3954} outcomes=d37e3a7be4b4224d",
		"revised/fixed=false/q2":   "rounds=2993 sent=5186 detected=200 missed=0 false=200 coord=200 delay={Count:200 MeanV:38.044999999999995 M2:4262.594999999999 MinV:30 MaxV:46} ttf={Count:200 MeanV:205.44 M2:1729.279999999999 MinV:190 MaxV:206} outcomes=3f1a2b5c8fae467e",
		"revised/fixed=false/q3":   "rounds=49066 sent=93384 detected=0 missed=0 false=49 coord=49 delay={Count:0 MeanV:0 M2:0 MinV:0 MaxV:0} ttf={Count:49 MeanV:2043.0204081632655 M2:5.730936897959184e+07 MinV:62 MaxV:3938} outcomes=a94a297f41e12286",
		"two-phase/fixed=false/q2": "rounds=2591 sent=4382 detected=200 missed=0 false=200 coord=200 delay={Count:200 MeanV:26.005000000000006 M2:4078.995 MinV:18 MaxV:34} ttf={Count:200 MeanV:193.27999999999997 M2:2200.32 MinV:178 MaxV:194} outcomes=645a9b4353fc760f",
		"two-phase/fixed=false/q3": "rounds=6476 sent=11896 detected=0 missed=0 false=200 coord=200 delay={Count:0 MeanV:0 M2:0 MinV:0 MaxV:0} ttf={Count:200 MeanV:445.9800000000001 M2:2.9593559919999998e+07 MinV:34 MaxV:1588} outcomes=8a70885509282bfa",
		"static/fixed=false/q2":    "rounds=2994 sent=15964 detected=200 missed=0 false=200 coord=200 delay={Count:200 MeanV:38.245 M2:4066.9950000000003 MinV:30 MaxV:46} ttf={Count:200 MeanV:205.52 M2:1489.9199999999992 MinV:190 MaxV:206} outcomes=136911a60078a279",
		"static/fixed=false/q3":    "rounds=41335 sent=234669 detected=0 missed=0 false=141 coord=141 delay={Count:0 MeanV:0 M2:0 MinV:0 MaxV:0} ttf={Count:141 MeanV:1803.3758865248226 M2:1.7849788907801414e+08 MinV:46 MaxV:3922} outcomes=b624ec344efc9558",
		"expanding/fixed=false/q2": "rounds=2994 sent=21364 detected=200 missed=0 false=200 coord=200 delay={Count:200 MeanV:38.04 M2:4243.680000000001 MinV:30 MaxV:46} ttf={Count:200 MeanV:205.52 M2:1489.9199999999967 MinV:190 MaxV:206} outcomes=e86e3c5a9aa253c1",
		"expanding/fixed=false/q3": "rounds=40498 sent=235936 detected=0 missed=0 false=139 coord=139 delay={Count:0 MeanV:0 M2:0 MinV:0 MaxV:0} ttf={Count:139 MeanV:1704.5611510791368 M2:1.777305282302158e+08 MinV:46 MaxV:3862} outcomes=3e41a7917d696ddc",
		"dynamic/fixed=false/q2":   "rounds=2994 sent=21364 detected=200 missed=0 false=200 coord=200 delay={Count:200 MeanV:38.04 M2:4243.680000000001 MinV:30 MaxV:46} ttf={Count:200 MeanV:205.52 M2:1489.9199999999967 MinV:190 MaxV:206} outcomes=e86e3c5a9aa253c1",
		"dynamic/fixed=false/q3":   "rounds=40498 sent=235936 detected=0 missed=0 false=139 coord=139 delay={Count:0 MeanV:0 M2:0 MinV:0 MaxV:0} ttf={Count:139 MeanV:1704.5611510791368 M2:1.777305282302158e+08 MinV:46 MaxV:3862} outcomes=3e41a7917d696ddc",
		"binary/fixed=true/q2":     "rounds=2991 sent=4782 detected=200 missed=0 false=200 coord=200 delay={Count:200 MeanV:38.004999999999995 M2:4078.995 MinV:30 MaxV:46} ttf={Count:200 MeanV:205.27999999999997 M2:2200.32 MinV:190 MaxV:206} outcomes=5f1fb87d48b2a76f",
		"binary/fixed=true/q3":     "rounds=3044 sent=4850 detected=0 missed=0 false=200 coord=200 delay={Count:0 MeanV:0 M2:0 MinV:0 MaxV:0} ttf={Count:200 MeanV:184.82 M2:6.612657520000001e+06 MinV:32 MaxV:1152} outcomes=8d2baa268d3fa979",
		"revised/fixed=true/q2":    "rounds=2993 sent=5186 detected=200 missed=0 false=200 coord=200 delay={Count:200 MeanV:38.044999999999995 M2:4262.594999999999 MinV:30 MaxV:46} ttf={Count:200 MeanV:205.44 M2:1729.279999999999 MinV:190 MaxV:206} outcomes=3f1a2b5c8fae467e",
		"revised/fixed=true/q3":    "rounds=3028 sent=5194 detected=0 missed=0 false=200 coord=200 delay={Count:0 MeanV:0 M2:0 MinV:0 MaxV:0} ttf={Count:200 MeanV:183.95999999999998 M2:6.37273568e+06 MinV:32 MaxV:1136} outcomes=f1ce0b35b7905053",
		"two-phase/fixed=true/q2":  "rounds=2591 sent=4382 detected=200 missed=0 false=200 coord=200 delay={Count:200 MeanV:26.005000000000006 M2:4078.995 MinV:18 MaxV:34} ttf={Count:200 MeanV:193.27999999999997 M2:2200.32 MinV:178 MaxV:194} outcomes=645a9b4353fc760f",
		"two-phase/fixed=true/q3":  "rounds=2146 sent=3529 detected=0 missed=0 false=200 coord=200 delay={Count:0 MeanV:0 M2:0 MinV:0 MaxV:0} ttf={Count:200 MeanV:146.87 M2:3.112660619999999e+06 MinV:32 MaxV:946} outcomes=8a1d55ddb12596f6",
		"static/fixed=true/q2":     "rounds=2994 sent=15964 detected=200 missed=0 false=200 coord=200 delay={Count:200 MeanV:38.245 M2:4066.9950000000003 MinV:30 MaxV:46} ttf={Count:200 MeanV:205.52 M2:1489.9199999999992 MinV:190 MaxV:206} outcomes=136911a60078a279",
		"static/fixed=true/q3":     "rounds=2173 sent=10643 detected=0 missed=0 false=200 coord=200 delay={Count:0 MeanV:0 M2:0 MinV:0 MaxV:0} ttf={Count:200 MeanV:106.91999999999999 M2:2.16220672e+06 MinV:32 MaxV:638} outcomes=1d833bf3c66ff530",
		"expanding/fixed=true/q2":  "rounds=2994 sent=21364 detected=200 missed=0 false=200 coord=200 delay={Count:200 MeanV:38.04 M2:4243.680000000001 MinV:30 MaxV:46} ttf={Count:200 MeanV:205.52 M2:1489.9199999999967 MinV:190 MaxV:206} outcomes=e86e3c5a9aa253c1",
		"expanding/fixed=true/q3":  "rounds=2325 sent=17484 detected=0 missed=0 false=200 coord=200 delay={Count:0 MeanV:0 M2:0 MinV:0 MaxV:0} ttf={Count:200 MeanV:118.79000000000002 M2:1.5969831800000004e+06 MinV:34 MaxV:648} outcomes=8e037f81beae88b8",
		"dynamic/fixed=true/q2":    "rounds=2994 sent=21364 detected=200 missed=0 false=200 coord=200 delay={Count:200 MeanV:38.04 M2:4243.680000000001 MinV:30 MaxV:46} ttf={Count:200 MeanV:205.52 M2:1489.9199999999967 MinV:190 MaxV:206} outcomes=e86e3c5a9aa253c1",
		"dynamic/fixed=true/q3":    "rounds=2325 sent=17484 detected=0 missed=0 false=200 coord=200 delay={Count:0 MeanV:0 M2:0 MinV:0 MaxV:0} ttf={Count:200 MeanV:118.79000000000002 M2:1.5969831800000004e+06 MinV:34 MaxV:648} outcomes=8e037f81beae88b8",
	}
	for _, fixed := range []bool{false, true} {
		for _, v := range Variants(3) {
			c := v.coreFor(2, 16)
			c.Fixed = fixed
			q2 := Config{
				Protocol: v.Protocol, Core: c, N: v.N,
				Link:    netem.LinkConfig{MaxDelay: 1},
				CrashAt: 160, CrashJitter: 16, Victim: 1,
				Horizon: 352,
			}
			q3 := Config{
				Protocol: v.Protocol, Core: c, N: v.N,
				Link:    netem.LinkConfig{LossProb: 0.1},
				Horizon: 4000,
			}
			for _, pt := range []struct {
				name string
				cfg  Config
			}{{"q2", q2}, {"q3", q3}} {
				cfg := pt.cfg
				cfg.Trials, cfg.Seed, cfg.Block, cfg.Record = 200, 11, 64, true
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/fixed=%v/%s", v.Name, fixed, pt.name)
				if got := ensembleDigest(res); got != want[key] {
					t.Errorf("%q: %q,", key, got)
				}
			}
		}
	}
}

// ensembleDigest renders a campaign's aggregates and a hash of its
// per-trial Outcomes.
func ensembleDigest(res *Result) string {
	h := fnv.New64a()
	for _, o := range res.Outcomes {
		fmt.Fprintf(h, "%+v\n", o)
	}
	return fmt.Sprintf("rounds=%d sent=%d detected=%d missed=%d false=%d coord=%d delay=%+v ttf=%+v outcomes=%016x",
		res.Rounds, res.Sent, res.Detected, res.Missed, res.FalseTrials, res.CoordInactivated,
		res.Delay, res.TimeToFalse, h.Sum64())
}

// TestKernelsAgree runs the configurations runTrialBinary serves — one
// member, fixed membership, no §6.1 hop — through the generic kernel as
// well, and holds the two kernels' per-trial Outcomes and round counts
// equal, under loss, jittered delays and a jittered crash.
func TestKernelsAgree(t *testing.T) {
	for _, v := range Variants(3)[:3] {
		for _, pt := range []struct {
			name string
			cfg  Config
		}{
			{"q2", Config{Link: netem.LinkConfig{LossProb: 0.05, MaxDelay: 1}, CrashAt: 160, CrashJitter: 16, Victim: 1, Horizon: 352}},
			{"q3", Config{Link: netem.LinkConfig{LossProb: 0.3}, Horizon: 4000}},
		} {
			cfg := pt.cfg
			cfg.Protocol, cfg.Core, cfg.N = v.Protocol, v.coreFor(2, 16), v.N
			cfg.Trials, cfg.Seed, cfg.Block, cfg.Record = 300, 3, 64, true
			binary, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			generic := runGeneric(t, cfg)
			if binary.Rounds != generic.Rounds {
				t.Errorf("%s %s: %d rounds on the binary kernel, %d on the generic", v.Name, pt.name, binary.Rounds, generic.Rounds)
			}
			for i := range binary.Outcomes {
				if b, g := binary.Outcomes[i], generic.Outcomes[i]; b != g {
					t.Fatalf("%s %s trial %d: binary kernel %+v, generic %+v", v.Name, pt.name, i, b, g)
				}
			}
		}
	}
}

// runGeneric runs cfg with every trial on the generic kernel.
func runGeneric(t *testing.T, cfg Config) *Result {
	t.Helper()
	genericOnly = true
	defer func() { genericOnly = false }()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
