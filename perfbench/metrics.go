package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The tables below are the
// benchmark's metric contract; BENCHMARK.json at the repository root
// lists the same names, units and directions (the package tests check
// the two agree). README.md says which end-to-end metric and workload
// each layer metric should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
}

// endToEnd are the metrics a user of the system sees, reported by
// untraced runs (--trace 0).
var endToEnd = []metricDef{
	{"gofs_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_per_gof", "KiB", "lower", 0.25},
	{"max_rss_mb", "MiB", "lower", 0.20},
	{"map", "ratio", "higher", 0.15},
}

// perLayer are the metrics of single layers, reported by traced runs
// (--trace 1). Times come from spans the benchmark records around its
// calls into each layer; counts come from the engines' reports and
// metrics registry. A layer a workload never reaches reports 0.
var perLayer = []metricDef{
	{Name: "sched.train_s", Unit: "s", Better: "lower"},
	{Name: "sched.load_ms", Unit: "ms", Better: "lower"},
	{Name: "vid.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.clones", Unit: "count", Better: "lower"},
	{Name: "sched.clone_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sched.clone_allocs", Unit: "count", Better: "lower"},
	{Name: "sched.clone_kb", Unit: "KiB", Better: "lower"},
	{Name: "core.new_pipeline_ms", Unit: "ms", Better: "lower"},
	{Name: "core.decisions", Unit: "count", Better: "higher"},
	{Name: "core.decide_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.decide_us_p99", Unit: "us", Better: "lower"},
	{Name: "core.decide_allocs", Unit: "count", Better: "lower"},
	{Name: "harness.step_us_p50", Unit: "us", Better: "lower"},
	{Name: "harness.step_us_p99", Unit: "us", Better: "lower"},
	{Name: "harness.step_self_us_p50", Unit: "us", Better: "lower"},
	{Name: "harness.step_allocs", Unit: "count", Better: "lower"},
	{Name: "serve.rounds", Unit: "count", Better: "lower"},
	{Name: "serve.round_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.round_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.admit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.wait_rounds_p99", Unit: "rounds", Better: "lower"},
	{Name: "fleet.barriers", Unit: "count", Better: "lower"},
	{Name: "fleet.barrier_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.barrier_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "fleet.arrival_barrier_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.idle_barrier_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.placements", Unit: "count", Better: "higher"},
	{Name: "fleet.migrations", Unit: "count", Better: "lower"},
	{Name: "fleet.preemptions", Unit: "count", Better: "lower"},
	{Name: "ckpt.board_deaths", Unit: "count", Better: "lower"},
	{Name: "ckpt.recoveries", Unit: "count", Better: "higher"},
	{Name: "ckpt.replayed_gofs", Unit: "count", Better: "lower"},
	{Name: "ckpt.restore_ratio", Unit: "ratio", Better: "higher"},
	{Name: "adapt.refits", Unit: "count", Better: "higher"},
	{Name: "adapt.promotions", Unit: "count", Better: "higher"},
	{Name: "adapt.demotions", Unit: "count", Better: "lower"},
	{Name: "obs.trace_write_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.encode_us_per_decision", Unit: "us", Better: "lower"},
	{Name: "obs.trace_kb_per_decision", Unit: "KiB", Better: "lower"},
	{Name: "replay.load_ms", Unit: "ms", Better: "lower"},
	{Name: "replay.decode_us_per_decision", Unit: "us", Better: "lower"},
	{Name: "replay.redecide_us_p50", Unit: "us", Better: "lower"},
	{Name: "replay.identity_diverged", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "sim.attain_rate", Unit: "ratio", Better: "higher"},
	{Name: "sim.gold_attain_rate", Unit: "ratio", Better: "higher"},
	{Name: "sim.frame_violation_rate", Unit: "ratio", Better: "lower"},
	{Name: "sim.p50_frame_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.p99_frame_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.stream_fail_rate", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
}

// quantile returns the nearest-rank q-quantile (q in [0, 1]) of xs,
// or 0 for an empty sample. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty sample. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
