package main

// metricDef names one metric. BENCHMARK.json lists the same names, units
// and directions; bench_test.go holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline by which an end-to-end metric may
	// worsen before -compare calls it worse; Slack is an absolute
	// allowance on top (per-layer metrics have neither).
	Bound, Slack float64
	// Contract marks the end-to-end metrics BENCHMARK.json lists. The
	// other two can be exactly 0 (allocs_per_op on the allocation-free
	// fleet path, fail_share everywhere), which a bound that is a share of
	// the baseline cannot express: fail_share is reported there as
	// failed/attempted, allocs_per_op as the per-layer bench.allocs_per_op.
	Contract bool
}

// endToEnd are the metrics every workload reports on an untraced run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Slack: 0.05, Contract: true},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25, Contract: true},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, Slack: 8, Contract: true},
	// Slack for allocs_per_op is one allocation per pass; -compare works
	// it out from ops_per_pass.
	{Name: "allocs_per_op", Unit: "allocs/op", Better: "lower", Bound: 0.02},
	{Name: "fail_share", Unit: "ratio", Better: "lower"},
}

// layers are the repository's packages on a measured path, in the order
// the per-layer report prints them.
var layers = []string{
	"sim", "netem", "core", "detector", "faults", "conform", "scenario",
	"ta", "models", "mc", "ensemble", "stats", "fleet",
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer are the metrics a traced run reports: each layer's probes and
// counts, then the harness's own.
var perLayer = func() []metricDef {
	defs := []metricDef{
		lower("sim.heap_event_ns.p64", "ns"),
		lower("sim.heap_event_ns.p16k", "ns"),
		lower("sim.wheel_event_ns.p64", "ns"),
		lower("sim.wheel_event_ns.p16k", "ns"),
		lower("sim.heap_rearm_ns", "ns"),
		lower("sim.wheel_rearm_ns", "ns"),
		lower("sim.event_allocs", "allocs/op"),

		lower("netem.send_deliver_ns", "ns"),
		lower("netem.send_deliver_ns.lossy", "ns"),
		lower("netem.msgs", "count"),
		lower("netem.drop_share", "ratio"),

		lower("core.step_ns.coord_n1", "ns"),
		lower("core.step_ns.coord_n8", "ns"),
		lower("core.step_ns.responder", "ns"),
		lower("core.step_ns.participant", "ns"),
		lower("core.step_ns.plain", "ns"),
		lower("core.step_ns.adaptive", "ns"),
		lower("core.nextwait_ns", "ns"),
		lower("core.beat_codec_ns", "ns"),
		lower("core.summary_codec_ns", "ns"),
		lower("core.step_allocs", "allocs/op"),
		lower("core.steps", "count"),

		higher("detector.events_per_s.heap", "1/s"),
		higher("detector.events_per_s.wheel", "1/s"),
		lower("detector.new_cluster_us", "us"),
		lower("detector.self_ns_per_event", "ns"),

		lower("faults.parse_us", "us"),
		lower("faults.wrap_send_ns", "ns"),

		lower("conform.build_spec_ms", "ms"),
		lower("conform.feed_ns_per_event", "ns"),
		lower("conform.feed_allocs_per_event", "allocs/op"),
		lower("conform.offline_ns_per_event", "ns"),
		lower("conform.max_frontier", "count"),
		lower("conform.incidents", "count"),
		lower("conform.unconfirmed", "count"),

		lower("scenario.trial_ms.rack_loss", "ms"),
		lower("scenario.trial_ms.wan_delay", "ms"),
		lower("scenario.trial_ms.churn_storm", "ms"),
		lower("scenario.retunes", "count"),
		lower("scenario.saturations", "count"),

		lower("ta.succ_ns_per_call", "ns"),
		lower("ta.succ_ns_per_trans", "ns"),
		lower("ta.key_codec_ns", "ns"),
		lower("ta.succ_allocs", "allocs/op"),

		lower("models.build_us", "us"),
		lower("models.table_ms.binary_family", "ms"),
		lower("models.table_ms.table2", "ms"),

		higher("mc.states_per_s.small", "1/s"),
		higher("mc.states_per_s.mid", "1/s"),
		higher("mc.states_per_s.large", "1/s"),
		lower("mc.states.small", "count"),
		lower("mc.states.mid", "count"),
		lower("mc.states.large", "count"),
		lower("mc.cex_ms", "ms"),
		higher("mc.lts_states_per_s", "1/s"),
		lower("mc.reduce_ms", "ms"),
		lower("mc.allocs_per_check", "allocs/op"),
		lower("mc.bytes_per_state", "B"),
		lower("mc.self_share.large", "ratio"),
		higher("mc.scale_w2", "ratio"),

		higher("ensemble.trials_per_s.binary", "1/s"),
		higher("ensemble.trials_per_s.generic", "1/s"),
		higher("ensemble.trials_per_s.fixed_binary", "1/s"),
		lower("ensemble.ns_per_round.binary", "ns"),
		lower("ensemble.ns_per_round.generic", "ns"),
		lower("ensemble.exact_ratio", "ratio"),
		higher("ensemble.vs_scenario", "ratio"),
		lower("ensemble.allocs_per_run", "allocs/op"),
		higher("ensemble.scale_w2", "ratio"),

		lower("stats.welford_add_ns", "ns"),
		lower("stats.sketch_add_ns", "ns"),

		lower("fleet.epoch_ms_p50", "ms"),
		lower("fleet.epoch_ms_p90", "ms"),
		lower("fleet.ns_per_beat", "ns"),
		lower("fleet.quiet_ns_per_beat", "ns"),
		lower("fleet.new_ms", "ms"),
		lower("fleet.bytes_per_endpoint", "B"),
		lower("fleet.allocs_per_epoch", "allocs/op"),
		lower("fleet.detect_ticks_p50", "ticks"),
		lower("fleet.detect_ticks_p99", "ticks"),
		higher("fleet.detections", "count"),
		lower("fleet.false_suspects", "count"),
		lower("fleet.losses", "count"),
		higher("fleet.scale_w2", "ratio"),

		higher("bench.passes", "count"),
		lower("bench.pass_ms_p50", "ms"),
		lower("bench.pass_ms_hi", "ms"),
		higher("bench.pass_hi_pct", "%"),
		lower("bench.ops_mad_share", "ratio"),
		lower("bench.warmup_s", "s"),
		lower("bench.gc_cycles", "count"),
		lower("bench.allocs_per_op", "allocs/op"),
		lower("bench.trace_overhead", "ratio"),
	}
	for _, l := range layers {
		defs = append(defs, lower("bench.share."+l, "ratio"))
	}
	return append(defs, lower("bench.unattributed_share", "ratio"))
}()
