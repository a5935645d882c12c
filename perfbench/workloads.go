package main

import (
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"litereconfig/internal/adapt"
	"litereconfig/internal/fault"
	"litereconfig/internal/fleet"
	"litereconfig/internal/obs"
	"litereconfig/internal/replay"
	"litereconfig/internal/sched"
	"litereconfig/internal/serve"
	"litereconfig/internal/vid"
	"litereconfig/internal/workload"
)

// workloadDef is one named benchmark workload. run performs one
// iteration: set-up (timed into setup_s) followed by the timed window.
type workloadDef struct {
	name string
	why  string
	// subSeeds is how many independent inputs one cycle of the workload
	// runs (see cycleSeed); the reported metrics pool over them.
	subSeeds int
	run      func(bundle string, in input, tr *tracer) (*iteration, error)
}

var workloads = []workloadDef{
	{
		name:     "long_sessions",
		why:      "closed batch of 6 long streams on one board: GoF stepping, scheduler decisions and round barriers dominate, admission is a few percent",
		subSeeds: 3,
		run:      runLongSessions,
	},
	{
		name:     "flashcrowd_fleet",
		why:      "2-board fleet under an open-loop flash crowd of short streams: every arrival pays admission (model clone, pipeline build)",
		subSeeds: 3,
		run:      runFlashcrowd,
	},
	{
		name:     "crash_record_replay",
		why:      "2-board fleet with a board crash, adaptation, risk admission and replay capture, then trace write, load and replay sweeps",
		subSeeds: 4,
		run:      runCrashRecordReplay,
	},
}

// input is what one iteration's inputs are generated from.
type input struct {
	// content seeds the videos and every stream's stochastic realization.
	content int64
	// shape seeds what stays fixed across runs: an open-loop workload's
	// traffic (arrival times, tiers, tenants and session lengths) and the
	// closed batch's per-stream content profiles. It depends only on the
	// iteration's place in the cycle, so every run serves the same shapes
	// and --seed varies the videos realized from them and how the streams
	// play out.
	shape int64
}

// input derives the k-th iteration of a cycle from the run's --seed.
// Distinct run seeds never share a content seed.
func (w workloadDef) input(seed int64, k int) input {
	return input{content: seed*int64(w.subSeeds) + int64(k), shape: int64(k + 1)}
}

// streamSeed is the content seed of stream i of an iteration.
func streamSeed(content int64, i int) int64 {
	return content*1_000_003 + int64(i)*7919 + 1
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Workload sizes.
const (
	// longStreams × longFrames is the long_sessions batch. Stream i is
	// served in tier i mod 3 and shows content archetype i mod 6, so every
	// iteration covers each archetype once.
	longStreams    = 6
	longFrames     = 8000
	longContention = 0.3
	// fleetBoards is the board count of both fleet workloads.
	fleetBoards = 2
	// The last board of crash_record_replay fail-stops crashLag rounds
	// after the crashAfterArrivals-th arrival of its schedule is placed.
	// The crash is tied to the traffic, not to a fixed round, so that it
	// hits a loaded fleet whatever the shape; crashValid checks that it
	// did.
	crashAfterArrivals = 6
	crashLag           = 3
	// crashCheckpointInterval is the checkpoint sweep period in barriers.
	crashCheckpointInterval = 2
	crashRiskQuantile       = 0.95
	// shadowSample caps the streams the shadow loop re-runs.
	shadowSample = 24
)

var (
	replaySLOSweep  = []float64{15, 33.3, 50, 100}
	replayRiskSweep = []float64{0, 0.9, 0.95, 0.99}
)

// iteration is the outcome of one set-up plus timed window.
type iteration struct {
	setupS  float64
	windowS float64
	// gofs is the number of recorded scheduler decisions (simulated
	// GoFs) the window produced.
	gofs int
	mem  memDelta
	// sim holds the ingredients of the simulated outcome; they must
	// repeat exactly for a fixed seed.
	sim simParts
	// counts holds layer counts read from the engines' reports; like
	// sim they are a pure function of the seed.
	counts map[string]float64
	// gate is the first correctness gate the iteration failed, or nil.
	gate error

	// The shadow loop's inputs: the loaded bundle, a sample of the
	// workload's streams and the engine settings they ran under.
	models    *sched.Models
	shadow    []serve.StreamConfig
	shadowSet shadowSettings
}

// memDelta is the heap activity of the timed window.
type memDelta struct {
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPauseNS  uint64
}

// window times the measured part of an iteration and snapshots the heap
// counters around it.
type window struct {
	t0 time.Time
	m0 runtime.MemStats
}

func startWindow() *window {
	w := &window{}
	runtime.ReadMemStats(&w.m0)
	w.t0 = time.Now()
	return w
}

func (w *window) stop(it *iteration) {
	it.windowS = time.Since(w.t0).Seconds()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	it.mem = memDelta{
		allocBytes: m1.TotalAlloc - w.m0.TotalAlloc,
		mallocs:    m1.Mallocs - w.m0.Mallocs,
		gcCycles:   m1.NumGC - w.m0.NumGC,
		gcPauseNS:  m1.PauseTotalNs - w.m0.PauseTotalNs,
	}
}

// loadBundle decodes the model bundle, the first step of every set-up.
func loadBundle(path string, tr *tracer) (*sched.Models, error) {
	sp := tr.begin("sched.load")
	defer tr.end(sp)
	return sched.LoadFile(path)
}

// sample picks up to n configs spread evenly over cfgs.
func sample(cfgs []serve.StreamConfig, n int) []serve.StreamConfig {
	if len(cfgs) <= n {
		return cfgs
	}
	out := make([]serve.StreamConfig, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, cfgs[i*len(cfgs)/n])
	}
	return out
}

// runLongSessions: a closed batch on one serve board. All streams are
// submitted at t=0 with FIFO admission, then the board is stepped round
// by round until it runs dry and drained.
func runLongSessions(bundle string, in input, tr *tracer) (*iteration, error) {
	it := &iteration{}
	t0 := time.Now()
	setup := tr.begin("setup")
	models, err := loadBundle(bundle, tr)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("vid.generate")
	tiers := workload.DefaultTiers()
	cfgs := make([]serve.StreamConfig, longStreams)
	for i := range cfgs {
		tier := tiers[i%len(tiers)]
		arch := vid.Archetypes[i%len(vid.Archetypes)].Name
		name := fmt.Sprintf("long-%s-%s-%d", tier.Name, arch, i)
		// The stream's content profile (object count, size, speed,
		// clutter, occlusion) is drawn from its archetype with the shape
		// seed; the content seed draws the video realized from it.
		profile := vid.GenerateArchetype(name, arch, streamSeed(in.shape, i), vid.GenConfig{Frames: 1}).Profile
		vseed := streamSeed(in.content, i)
		cfgs[i] = serve.StreamConfig{
			Name:           name,
			Video:          vid.GenerateWithProfile(name, vseed, vid.GenConfig{Frames: longFrames}, profile),
			SLO:            tier.SLOMS,
			Class:          tier.Name,
			Seed:           vseed,
			BaseContention: longContention,
		}
	}
	tr.end(sp)
	sp = tr.begin("engine.new")
	observer := obs.New()
	srv, err := serve.New(serve.Options{Models: models, Observer: observer})
	tr.end(sp)
	tr.end(setup)
	if err != nil {
		return nil, err
	}
	it.setupS = time.Since(t0).Seconds()

	w := startWindow()
	win := tr.begin("window")
	submitted := 0
	for _, cfg := range cfgs {
		sp := tr.begin("serve.submit")
		_, err := srv.Submit(cfg)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("submit %s: %w", cfg.Name, err)
		}
		submitted++
	}
	for {
		sp := tr.begin("serve.round")
		more := srv.StepRound()
		tr.end(sp)
		if !more {
			break
		}
	}
	sp = tr.begin("serve.drain")
	res := srv.Drain()
	decisions := observer.Decisions()
	tr.end(sp)
	tr.end(win)
	w.stop(it)

	arrivals := map[string]int{}
	for _, cfg := range cfgs {
		arrivals[serve.ClassOf(cfg)]++
	}
	out := outcome{
		rows: res.Streams, classes: res.Classes, arrivals: arrivals,
		decisions: decisions, metrics: res.Metrics(),
	}
	it.gofs = len(decisions)
	it.sim = out.simParts()
	it.counts = out.counts()
	it.counts["serve.rounds"] = float64(res.Rounds)
	it.counts["serve.admit_ratio"] = float64(submitted-res.Rejected) / float64(len(cfgs))
	it.gate = out.gates(false)
	it.models, it.shadow = models, sample(cfgs, shadowSample)
	return it, nil
}

// fleetSpec is the part of a fleet workload that differs between the
// two fleet workloads.
type fleetSpec struct {
	scenario string
	boards   []fleet.BoardConfig
	opts     func(*fleet.Options, *workload.Schedule)
	shadow   shadowSettings
	// after, when set, runs inside the window once the fleet report
	// exists. It returns an error when it cannot run and records a failed
	// correctness check in it.gate.
	after func(rep *fleet.Report, models *sched.Models, it *iteration) error
	// valid, when set, checks that the run exercised what the workload is
	// there to measure.
	valid func(rep *fleet.Report) error
}

// runFleet sets up an open-loop fleet over a named large-scale scenario
// and runs it to completion inside the window.
func runFleet(bundle string, in input, tr *tracer, spec fleetSpec) (*iteration, error) {
	it := &iteration{}
	t0 := time.Now()
	setup := tr.begin("setup")
	models, err := loadBundle(bundle, tr)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("vid.generate")
	wcfg, err := workload.Scenario(spec.scenario, "large", in.shape)
	if err != nil {
		return nil, err
	}
	schedule, err := workload.Generate(wcfg)
	if err != nil {
		return nil, err
	}
	src := newArrivalSource(schedule, in.content)
	tr.end(sp)
	sp = tr.begin("engine.new")
	observer := obs.New()
	opts := fleet.Options{
		Models:       models,
		Boards:       spec.boards,
		Source:       src,
		Observer:     observer,
		Admission:    serve.AdmissionWFQ,
		ClassWeights: workload.Weights(wcfg.Tiers),
		Preempt:      true,
	}
	if spec.opts != nil {
		spec.opts(&opts, schedule)
	}
	fl, err := fleet.New(opts)
	tr.end(sp)
	tr.end(setup)
	if err != nil {
		return nil, err
	}
	it.setupS = time.Since(t0).Seconds()

	w := startWindow()
	win := tr.begin("window")
	sp = tr.begin("fleet.run")
	src.tr = tr
	rep := fl.Run()
	src.closeBarrier()
	src.tr = nil
	decisions := rep.Decisions()
	tr.end(sp)
	it.counts = map[string]float64{}
	if spec.after != nil {
		if err := spec.after(rep, models, it); err != nil {
			return nil, err
		}
	}
	tr.end(win)
	w.stop(it)

	// The conservation gate counts arrivals from the benchmark's own
	// schedule, not from the fleet's report, so an arrival the fleet took
	// and lost track of shows.
	arrivals := map[string]int{}
	for _, cfg := range src.cfgs {
		arrivals[serve.ClassOf(cfg)]++
	}
	out := outcome{
		rows: rep.Streams, classes: rep.Classes, arrivals: arrivals,
		decisions: decisions, metrics: rep.Metrics(),
	}
	for _, e := range rep.FleetEvents() {
		if e.Kind == "restore" || e.Kind == "requeue" {
			out.lostInFlight++
		}
	}
	it.gofs = len(decisions)
	it.sim = out.simParts()
	for k, v := range out.counts() {
		it.counts[k] = v
	}
	rounds, recovered := 0, 0
	for _, b := range rep.Boards {
		rounds += b.Rounds
	}
	for _, c := range rep.Classes {
		recovered += c.Recovered
	}
	it.counts["sched.clones"]++ // the fleet's own placement-scoring clone
	it.counts["serve.rounds"] = float64(rounds)
	if rep.Arrivals > 0 {
		it.counts["serve.admit_ratio"] = float64(rep.Arrivals-rep.Rejected) / float64(rep.Arrivals)
	}
	it.counts["fleet.barriers"] = float64(rep.Barriers)
	it.counts["fleet.placements"] = float64(rep.Placed)
	it.counts["fleet.migrations"] = float64(rep.Migrations)
	it.counts["fleet.preemptions"] = float64(rep.Preemptions)
	it.counts["ckpt.board_deaths"] = float64(rep.BoardDeaths)
	it.counts["ckpt.recoveries"] = float64(rep.Recoveries)
	it.counts["ckpt.replayed_gofs"] = float64(rep.ReplayedGoFs)
	if rep.Recoveries > 0 {
		it.counts["ckpt.restore_ratio"] = float64(recovered) / float64(rep.Recoveries)
	}
	it.counts["adapt.refits"] = float64(rep.Refits)
	it.counts["adapt.promotions"] = float64(rep.Promotions)
	it.counts["adapt.demotions"] = float64(rep.Demotions)
	it.gate = firstErr(out.gates(true), sourceGate(src, rep), it.gate)
	if it.gate == nil && spec.valid != nil {
		it.gate = spec.valid(rep)
	}
	it.models, it.shadow, it.shadowSet = models, sample(src.cfgs, shadowSample), spec.shadow
	return it, nil
}

// sourceGate checks that the fleet drained the benchmark's schedule:
// every arrival was handed out and counted, and the fleet polled the
// source exactly once per barrier.
func sourceGate(src *arrivalSource, rep *fleet.Report) error {
	switch {
	case !src.Exhausted():
		return fmt.Errorf("fleet stopped with %d of %d arrivals never taken", len(src.at)-src.next, len(src.at))
	case rep.Arrivals != len(src.at):
		return fmt.Errorf("fleet counted %d arrivals, the schedule has %d", rep.Arrivals, len(src.at))
	case src.takes != rep.Barriers:
		return fmt.Errorf("source polled %d times over %d barriers", src.takes, rep.Barriers)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func boardConfigs() []fleet.BoardConfig {
	boards := make([]fleet.BoardConfig, fleetBoards)
	for i := range boards {
		boards[i].Name = fmt.Sprintf("b%d", i)
	}
	return boards
}

// runFlashcrowd: the flashcrowd/large scenario on a 2-board fleet with
// weighted-fair queueing, preemption and tier weights.
func runFlashcrowd(bundle string, in input, tr *tracer) (*iteration, error) {
	return runFleet(bundle, in, tr, fleetSpec{
		scenario: "flashcrowd",
		boards:   boardConfigs(),
	})
}

// runCrashRecordReplay: the heavytail/large scenario on a 2-board fleet
// with adaptation, risk admission and replay capture, whose last board
// fail-stops mid-run. Inside the same window the decision and fleet
// traces are written as gzip JSON Lines, loaded back, and replayed:
// identity, an SLO sweep and a risk sweep.
func runCrashRecordReplay(bundle string, in input, tr *tracer) (*iteration, error) {
	return runFleet(bundle, in, tr, fleetSpec{
		scenario: "heavytail",
		boards:   boardConfigs(),
		opts: func(o *fleet.Options, s *workload.Schedule) {
			o.Boards[len(o.Boards)-1].Faults = &fault.Config{CrashRound: crashRoundFor(s)}
			o.Adapt = &adapt.Config{}
			o.RiskQuantile = crashRiskQuantile
			o.ReplayTrace = true
			o.CheckpointInterval = crashCheckpointInterval
		},
		shadow: shadowSettings{RiskQuantile: crashRiskQuantile, Adapt: true, ReplayTrace: true},
		after:  recordReplay(tr),
		valid:  crashValid,
	})
}

// crashRoundFor returns the 1-based round at which the crashing board
// fail-stops. An arrival due at virtual time t is placed at the first
// barrier b with b × tick ≥ t and first stepped in round b+1.
func crashRoundFor(s *workload.Schedule) int {
	at := s.Arrivals[min(crashAfterArrivals, len(s.Arrivals))-1].AtMS
	return int(math.Ceil(at/fleet.DefaultTickMS)) + 1 + crashLag
}

// crashValid checks that the crash hit a board with live streams, so the
// run measured checkpoint restore.
func crashValid(rep *fleet.Report) error {
	if rep.BoardDeaths != 1 || rep.Recoveries == 0 {
		return fmt.Errorf("crash workload saw %d board deaths and %d recoveries; want 1 death and at least 1 recovery",
			rep.BoardDeaths, rep.Recoveries)
	}
	return nil
}

// recordReplay returns the record-and-replay tail of
// crash_record_replay.
func recordReplay(tr *tracer) func(*fleet.Report, *sched.Models, *iteration) error {
	return func(rep *fleet.Report, models *sched.Models, it *iteration) error {
		dir, err := os.MkdirTemp(buildDir, "trace-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		decPath := filepath.Join(dir, "decisions.jsonl.gz")
		fleetPath := filepath.Join(dir, "fleet.jsonl.gz")

		// Only the decision trace is timed: obs.trace_write covers the
		// WriteTrace call alone. The fleet trace is written untimed.
		decBytes, err := writeGzip(decPath, rep.WriteTrace, tr)
		if err == nil {
			_, err = writeGzip(fleetPath, rep.WriteFleetTrace, nil)
		}
		if err != nil {
			return err
		}

		sp := tr.begin("replay.load")
		corpus, err := replay.Load(decPath, fleetPath)
		tr.end(sp)
		if err != nil {
			return err
		}
		n := corpus.Decisions()
		if n > 0 {
			it.counts["obs.trace_kb_per_decision"] = float64(decBytes) / 1024 / float64(n)
		}

		identity, err := replayOnce(replay.Config{Models: models}, corpus, tr)
		if err != nil {
			return err
		}
		it.counts["replay.identity_diverged"] = float64(identity.DivergedDecisions)
		if identity.DivergedDecisions != 0 {
			it.gate = fmt.Errorf("identity replay diverged on %d of %d decisions", identity.DivergedDecisions, n)
		}
		for _, slo := range replaySLOSweep {
			if _, err := replayOnce(replay.Config{Models: models, SLOMS: slo}, corpus, tr); err != nil {
				return err
			}
		}
		for _, q := range replayRiskSweep {
			q := q
			if _, err := replayOnce(replay.Config{Models: models, RiskQuantile: &q}, corpus, tr); err != nil {
				return err
			}
		}
		return nil
	}
}

func replayOnce(cfg replay.Config, c *replay.Corpus, tr *tracer) (*replay.Result, error) {
	sp := tr.begin("replay.replay")
	defer tr.end(sp)
	e, err := replay.New(cfg)
	if err != nil {
		return nil, err
	}
	return e.Replay(c)
}

// gzipSink is the benchmark-owned compressed trace writer. With a tracer
// attached every Write is an obs.gzip span, so the self time of the
// enclosing obs.trace_write span is the encoder's own cost.
type gzipSink struct {
	zw  *gzip.Writer
	raw int64
	tr  *tracer
}

func (g *gzipSink) Write(p []byte) (int, error) {
	sp := g.tr.begin("obs.gzip")
	n, err := g.zw.Write(p)
	g.tr.end(sp)
	g.raw += int64(n)
	return n, err
}

// writeGzip writes one trace through a gzipSink into path and returns
// the uncompressed byte count. With a tracer the write call is an
// obs.trace_write span; creating the file and flushing and closing the
// gzip stream stay outside it.
func writeGzip(path string, write func(io.Writer) error, tr *tracer) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	g := &gzipSink{zw: gzip.NewWriter(f), tr: tr}
	sp := tr.begin("obs.trace_write")
	err = write(g)
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	if err := g.zw.Close(); err != nil {
		return 0, err
	}
	return g.raw, f.Close()
}
