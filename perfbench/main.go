// Command perfbench is the repository's benchmark. It runs one named
// workload through the public engine entry points — sched.Load,
// vid/workload generation, serve.New/Submit/StepRound/Drain,
// fleet.New/Run, trace writing and replay — for a fixed number of
// seconds, checks the outputs, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload long_sessions --seed 7 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 the
// per-layer metrics, from spans it records around its own calls into
// each layer plus a shadow loop that re-runs a sample of the workload's
// streams outside the engines. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// minCycles is the fewest cycles an untraced run makes, however short
// --seconds is, so that every reported median has several samples. A
// traced run makes at least one untraced and one traced cycle.
const minCycles = 3

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	wlName := flag.String("workload", "", "workload to run: long_sessions, flashcrowd_fleet or crash_record_replay")
	seed := flag.Int64("seed", 7, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	train := flag.String("train", "", "internal: train the model bundle into this path and exit")
	flag.Parse()

	if *train != "" {
		if err := trainBundle(*train); err != nil {
			fail(err)
		}
		return
	}
	wl, ok := workloadByName(*wlName)
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *wlName))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	moduleHash, allHash, err := sourceHashes(".")
	if err != nil {
		fail(err)
	}
	bundle, info, err := ensureBundle(moduleHash)
	if err != nil {
		fail(err)
	}
	r := newRunner(wl, *seed, bundle, time.Duration(*seconds)*time.Second)
	var res *result
	if *trace == 1 {
		res, err = r.traced(info)
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		fail(err)
	}
	if r.complete() {
		if err := checkSimRecord(allHash, wl.name, *seed, simRecord{Sim: r.sim(), Counts: r.counts()}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			res.Correct = false
			res.Failed++
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runner repeats a workload's cycles and checks each iteration. A cycle
// runs one iteration per sub-seed of the run's seed; the end-to-end
// metrics pool the sub-seeds' medians over cycles (see pooled), and the
// simulated metrics pool the sub-seeds' outcomes.
type runner struct {
	wl     workloadDef
	seed   int64
	bundle string
	budget time.Duration

	attempted, failed int
	// ref holds each sub-seed's first completed iteration; every later
	// iteration of that sub-seed must repeat its simulated outcome
	// exactly.
	ref []*iteration
	// shadowSrc is the latest traced iteration of sub-seed 0; it supplies
	// the shadow loop's bundle and stream sample.
	shadowSrc *iteration
	// decisions maps a traced iteration's run id to its decision count.
	decisions map[string]float64
}

func newRunner(wl workloadDef, seed int64, bundle string, budget time.Duration) *runner {
	return &runner{wl: wl, seed: seed, bundle: bundle, budget: budget,
		ref: make([]*iteration, wl.subSeeds), decisions: map[string]float64{}}
}

// iterate runs the k-th sub-seed's iteration and applies the correctness
// gates. It returns nil for an iteration that failed.
func (r *runner) iterate(k int, tr *tracer) *iteration {
	runtime.GC()
	r.attempted++
	run := fmt.Sprintf("%s-seed%d-it%d", r.wl.name, r.seed, r.attempted)
	tr.setRun(run)
	it, err := r.wl.run(r.bundle, r.wl.input(r.seed, k), tr)
	if err == nil {
		err = it.gate
	}
	if err == nil && r.ref[k] != nil && !sameSim(r.ref[k], it) {
		err = fmt.Errorf("simulated outcome of sub-seed %d differs between iterations: %+v vs %+v",
			k, poolSim([]simParts{r.ref[k].sim}), poolSim([]simParts{it.sim}))
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d failed: %v\n", r.wl.name, r.attempted, err)
		return nil
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d sub-seed %d traced=%t setup %.4fs window %.4fs gofs %d (%.1f/s)\n",
		r.wl.name, r.attempted, k, tr != nil, it.setupS, it.windowS, it.gofs, float64(it.gofs)/it.windowS)
	if tr != nil {
		r.decisions[run] = float64(it.gofs)
		if k == 0 {
			r.shadowSrc = it
		}
	}
	if tr == nil || k != 0 {
		it.models, it.shadow = nil, nil // keep no inputs alive between iterations
	}
	if r.ref[k] == nil {
		r.ref[k] = it
	}
	return it
}

// cycle is one iteration per sub-seed.
type cycle []*iteration

// runCycle runs a cycle; ok is false when an iteration failed.
func (r *runner) runCycle(tr *tracer) (c cycle, ok bool) {
	for k := 0; k < r.wl.subSeeds; k++ {
		it := r.iterate(k, tr)
		if it == nil {
			return nil, false
		}
		c = append(c, it)
	}
	return c, true
}

// pooled summarizes repeated cycles: every sub-seed's median window
// time, set-up time and window allocation over its repetitions, pooled
// over the sub-seeds. Per-input medians shrug off an occasional slow
// iteration on a noisy host; pooling weighs each input by its work.
func pooled(cycles []cycle) (gofsPerS, setupS, allocKBPerGoF float64) {
	gofs := 0
	var window, setup, alloc float64
	for k := range cycles[0] {
		var w, s, a []float64
		for _, c := range cycles {
			w = append(w, c[k].windowS)
			s = append(s, c[k].setupS)
			a = append(a, float64(c[k].mem.allocBytes))
		}
		gofs += cycles[0][k].gofs
		window += median(w)
		setup += median(s)
		alloc += median(a)
	}
	return float64(gofs) / window, setup / float64(len(cycles[0])), alloc / 1024 / float64(gofs)
}

// sim pools the simulated outcomes of all sub-seeds.
func (r *runner) sim() simStats {
	parts := make([]simParts, len(r.ref))
	for k, it := range r.ref {
		parts[k] = it.sim
	}
	return poolSim(parts)
}

// counts averages the layer counts over the sub-seeds.
func (r *runner) counts() map[string]float64 {
	out := map[string]float64{}
	for _, it := range r.ref {
		for name, v := range it.counts {
			out[name] += v / float64(len(r.ref))
		}
	}
	return out
}

// complete reports whether every sub-seed has a reference outcome.
func (r *runner) complete() bool {
	for _, it := range r.ref {
		if it == nil {
			return false
		}
	}
	return true
}

func (r *runner) result(metrics map[string]metric) *result {
	return &result{
		Correct:   r.failed == 0 && r.complete(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}
}

// untraced measures the end-to-end metrics: cycles without any span
// recording until the time budget is spent.
func (r *runner) untraced() (*result, error) {
	start := time.Now()
	var cycles []cycle
	for len(cycles) < minCycles || time.Since(start) < r.budget {
		c, ok := r.runCycle(nil)
		if !ok {
			return r.result(map[string]metric{}), nil
		}
		cycles = append(cycles, c)
	}
	rate, setup, alloc := pooled(cycles)
	m := map[string]metric{
		"gofs_per_s":       {rate, "1/s"},
		"setup_s":          {setup, "s"},
		"alloc_kb_per_gof": {alloc, "KiB"},
		"max_rss_mb":       {maxRSSMB(), "MiB"},
		"map":              {r.sim().MAP, "ratio"},
	}
	return r.result(m), nil
}

// traced measures the per-layer metrics. It alternates untraced and
// traced cycles until the budget is spent (the two rates give the
// tracing overhead), then runs the shadow loop over a sample of
// sub-seed 0's streams: once timed, once counting allocations. Spans are
// kept in memory and written to .bench_build/spans/ at the end.
func (r *runner) traced(info bundleInfo) (*result, error) {
	tr := newTracer()
	start := time.Now()
	var plain, traced []cycle
	for len(traced) == 0 || time.Since(start) < r.budget {
		c, ok := r.runCycle(nil)
		if !ok {
			return r.result(map[string]metric{}), nil
		}
		plain = append(plain, c)
		if c, ok = r.runCycle(tr); !ok {
			return r.result(map[string]metric{}), nil
		}
		traced = append(traced, c)
	}
	src := r.shadowSrc
	sh := shadowRun{models: src.models, streams: src.shadow, set: src.shadowSet, wrap: true, tr: tr}
	tr.setRun(fmt.Sprintf("%s-seed%d-shadow", r.wl.name, r.seed))
	if err := sh.run(); err != nil {
		return nil, fmt.Errorf("shadow loop: %w", err)
	}
	mem, err := measureShadowAllocs(sh)
	if err != nil {
		return nil, fmt.Errorf("shadow loop: %w", err)
	}
	spanPath := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", r.wl.name, r.seed))
	if err := tr.write(spanPath); err != nil {
		return nil, err
	}

	m := map[string]metric{}
	for _, d := range perLayer {
		m[d.Name] = metric{0, d.Unit}
	}
	set := func(name string, v float64) {
		d, ok := m[name]
		if !ok {
			panic("perfbench: undefined per-layer metric " + name)
		}
		m[name] = metric{v, d.Unit}
	}
	for name, v := range r.counts() {
		set(name, v)
	}
	s := r.sim()
	set("sim.attain_rate", s.AttainRate)
	set("sim.gold_attain_rate", s.GoldAttainRate)
	set("sim.frame_violation_rate", s.FrameViolationRate)
	set("sim.p50_frame_ms", s.P50FrameMS)
	set("sim.p99_frame_ms", s.P99FrameMS)
	set("sim.stream_fail_rate", s.StreamFailRate)
	const ms, us = time.Millisecond, time.Microsecond
	set("sched.train_s", info.TrainS)
	set("sched.load_ms", median(tr.durations("sched.load", ms)))
	set("vid.generate_ms", median(tr.durations("vid.generate", ms)))
	set("sched.clone_ms_p50", median(tr.durations("sched.clone", ms)))
	set("core.new_pipeline_ms", median(tr.durations("core.new_pipeline", ms)))
	decide := tr.durations("core.decide", us)
	set("core.decide_us_p50", quantile(decide, 0.50))
	set("core.decide_us_p99", quantile(decide, 0.99))
	step := tr.durations("harness.step", us)
	set("harness.step_us_p50", quantile(step, 0.50))
	set("harness.step_us_p99", quantile(step, 0.99))
	set("harness.step_self_us_p50", quantile(tr.selfTimes("harness.step", us), 0.50))
	if mem.clones > 0 {
		set("sched.clone_allocs", float64(mem.cloneAllocs)/float64(mem.clones))
		set("sched.clone_kb", float64(mem.cloneBytes)/1024/float64(mem.clones))
	}
	if mem.decides > 0 {
		set("core.decide_allocs", float64(mem.decideAllocs)/float64(mem.decides))
	}
	if mem.steps > 0 {
		set("harness.step_allocs", float64(mem.stepAllocs)/float64(mem.steps))
	}

	rounds := tr.durations("serve.round", ms)
	set("serve.round_ms_p50", quantile(rounds, 0.50))
	set("serve.round_ms_p99", quantile(rounds, 0.99))
	set("serve.submit_ms_p50", quantile(tr.durations("serve.submit", ms), 0.50))
	arrival := tr.durations("fleet.arrival_barrier", ms)
	idle := tr.durations("fleet.idle_barrier", ms)
	barriers := append(append([]float64(nil), arrival...), idle...)
	set("fleet.barrier_ms_p50", quantile(barriers, 0.50))
	set("fleet.barrier_ms_p99", quantile(barriers, 0.99))
	set("fleet.arrival_barrier_ms_p50", quantile(arrival, 0.50))
	set("fleet.idle_barrier_ms_p50", quantile(idle, 0.50))

	set("obs.trace_write_ms", median(tr.durations("obs.trace_write", ms)))
	set("obs.encode_us_per_decision", median(r.perDecision(tr, "obs.trace_write", true)))
	set("replay.load_ms", median(tr.durations("replay.load", ms)))
	set("replay.decode_us_per_decision", median(r.perDecision(tr, "replay.load", false)))
	set("replay.redecide_us_p50", quantile(r.perDecision(tr, "replay.replay", false), 0.50))

	var gcs, pause, alloc []float64
	for _, c := range plain {
		for _, it := range c {
			gcs = append(gcs, float64(it.mem.gcCycles))
			pause = append(pause, float64(it.mem.gcPauseNS)/1e6)
			alloc = append(alloc, float64(it.mem.allocBytes)/(1<<20))
		}
	}
	set("runtime.gc_cycles", median(gcs))
	set("runtime.gc_pause_ms", median(pause))
	set("runtime.alloc_mb", median(alloc))
	plainRate, _, _ := pooled(plain)
	tracedRate, _, _ := pooled(traced)
	set("bench.trace_overhead", plainRate/tracedRate-1)
	return r.result(m), nil
}

// perDecision returns, for every span of the given name recorded in a
// traced engine iteration, its duration (or self time) in microseconds
// divided by that iteration's decision count.
func (r *runner) perDecision(tr *tracer, name string, self bool) []float64 {
	var ns []int64
	if self {
		ns = tr.selfNS()
	}
	var out []float64
	for i, s := range tr.spans {
		n := r.decisions[s.Run]
		if s.Name != name || n == 0 {
			continue
		}
		d := s.dur()
		if self {
			d = ns[i]
		}
		out = append(out, float64(d)/1e3/n)
	}
	return out
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
