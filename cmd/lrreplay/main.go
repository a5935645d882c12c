// Command lrreplay is the counterfactual replay engine's CLI: it
// re-runs the LiteReconfig scheduler over decision traces captured with
// -replay_trace (lrserve or lrfleet), either verbatim — the fidelity
// check, where the unchanged policy must reproduce every recorded
// decision exactly — or under altered knobs, estimating what a
// different configuration would have done to SLO attainment and
// accuracy without re-running the simulation.
//
// Replay a recorded trace under its recorded configuration and assert
// bit-exact fidelity:
//
//	lrserve -streams 8 -frames 240 -replay_trace -trace run.jsonl.gz
//	lrreplay -identity run.jsonl.gz
//
// Sweep the SLO over the same capture and compare against the recorded
// baseline:
//
//	lrreplay -slo_sweep 15,33.3,50,100 -compare run.jsonl.gz
//
// What-if knobs: -policy forces a scheduler variant over every
// decision, -degrade off|sim ablates or re-simulates the watchdog
// ladder, and -models adapted -registry reg.gob re-predicts from an
// adapted bundle out of the online-adaptation registry instead of the
// recorded tables. -risk_q overrides the probabilistic-admission
// quantile (0 forces mean admission over a risk-recorded corpus), and
// -risk_sweep replays the corpus across a quantile ladder:
//
//	lrreplay -risk_sweep 0,0.9,0.95,0.99 -compare run.jsonl.gz
//
// -bench runs a self-contained benchmark — record a seeded serve
// scenario in-process, identity-replay it, sweep the SLO — and writes
// the BENCH_replay.json artifact with the replayed-GoFs-per-second
// throughput and the replay-vs-simulation speedup.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"litereconfig/internal/adapt"
	"litereconfig/internal/cmdutil"
	"litereconfig/internal/obs"
	"litereconfig/internal/replay"
	"litereconfig/internal/sched"
	"litereconfig/internal/serve"
	"litereconfig/internal/vid"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lrreplay: ")

	modelMode := flag.String("models", "frozen", "prediction source: frozen (the recorded tables) or adapted (re-predict from a registry snapshot)")
	modelFile := flag.String("model_file", "", "trained bundle from lrtrain supplying the branch space and benefit table (trains the compact fixture set if empty)")
	registry := flag.String("registry", "", "adaptation registry gob (lrtrain -registry_out / lrserve -registry_out); required with -models adapted")
	version := flag.String("version", "", "registry version label to replay with (default: the newest committed version)")
	slo := flag.Float64("slo", 0, "override every decision's SLO in ms (0 = as recorded)")
	sloSweep := flag.String("slo_sweep", "", "comma-separated SLO list in ms; replays the corpus once per point and prints the sweep")
	riskSweep := flag.String("risk_sweep", "", "comma-separated admission-quantile list, e.g. 0,0.9,0.95,0.99; replays the corpus once per quantile (0 = mean admission) and prints the sweep")
	riskQ := flag.String("risk_q", "", "override the admission quantile for every decision: a value in [0,1), where 0 forces mean admission even over risk-recorded corpora (empty = as recorded)")
	safety := flag.Float64("safety", 0, "override the planning safety factor (0 = as recorded)")
	policy := flag.String("policy", "", "override the scheduler variant for every decision: full, mincost, maxcontent-resnet, maxcontent-mobilenet, force-<feature> (empty = as recorded)")
	degrade := flag.String("degrade", "recorded", "graceful-degradation treatment: recorded, off or sim")
	identity := flag.Bool("identity", false, "assert the fidelity invariant: exit non-zero unless every decision replays bit-exactly")
	compare := flag.Bool("compare", false, "print the recorded baseline next to each replayed outcome, with deltas")
	show := flag.Int("show", 5, "divergent decisions to print when the identity check fails")
	bench := flag.String("bench", "", "run the self-contained replay benchmark and write its JSON report to this file (e.g. BENCH_replay.json)")
	benchStreams := flag.Int("bench_streams", 8, "streams in the benchmark scenario")
	benchFrames := flag.Int("bench_frames", 240, "frames per stream in the benchmark scenario")
	seed := flag.Int64("seed", 7, "base seed for the benchmark scenario")
	flag.Parse()

	degradeKnob, err := replay.ParseDegrade(*degrade)
	if err != nil {
		log.Fatal(err)
	}
	models, usePred := loadModels(*modelMode, *modelFile, *registry, *version)
	base := replay.Config{
		Models:              models,
		SLOMS:               *slo,
		SafetyFactor:        *safety,
		Degrade:             degradeKnob,
		Policy:              *policy,
		UseModelPredictions: usePred,
	}
	if *riskQ != "" {
		v, err := strconv.ParseFloat(strings.TrimSpace(*riskQ), 64)
		if err != nil {
			log.Fatalf("bad -risk_q: %v", err)
		}
		base.RiskQuantile = &v
	}

	if *bench != "" {
		runBench(*bench, base, *sloSweep, *benchStreams, *benchFrames, *seed)
		return
	}

	paths := flag.Args()
	if len(paths) == 0 {
		log.Fatal("no traces given (usage: lrreplay [flags] trace.jsonl[.gz] | trace-dir ...)")
	}
	corpus, err := replay.Load(paths...)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("corpus: %d decisions (%d frames) across %d files, %.1f s simulated; %d fleet events ride along",
		corpus.Decisions(), corpus.Frames(), len(corpus.Files), corpus.SimMS()/1e3, corpus.FleetEvents())

	if *sloSweep != "" {
		points, err := cmdutil.ParseFloats(*sloSweep)
		if err != nil {
			log.Fatalf("bad -slo_sweep: %v", err)
		}
		runSweep(corpus, base, points, *compare)
		return
	}

	if *riskSweep != "" {
		points, err := cmdutil.ParseFloats(*riskSweep)
		if err != nil {
			log.Fatalf("bad -risk_sweep: %v", err)
		}
		runRiskSweep(corpus, base, points, *compare)
		return
	}

	e, err := replay.New(base)
	if err != nil {
		log.Fatal(err)
	}
	t0 := time.Now()
	res, err := e.Replay(corpus)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(t0)
	log.Printf("replayed %d decisions in %v (%.0f GoFs/sec)",
		len(res.Redecisions), wall.Round(time.Microsecond), rate(res.Replayed.GoFs, wall))

	printOutcome("replayed", res.Replayed)
	if *compare {
		printOutcome("recorded", res.Recorded)
		fmt.Printf("%-10s attain %+6.2f pp   acc %+6.2f pp   lat %+7.2f ms\n", "delta",
			100*(res.Replayed.AttainRate-res.Recorded.AttainRate),
			100*(res.Replayed.MeanAccuracy-res.Recorded.MeanAccuracy),
			res.Replayed.MeanMS-res.Recorded.MeanMS)
	}
	reportFidelity(res, len(res.Redecisions), *identity, *show)
}

// loadModels resolves the -models mode to a bundle and the prediction
// source. frozen replays the recorded tables; adapted re-predicts from
// a registry snapshot.
func loadModels(mode, modelFile, registryPath, version string) (*sched.Models, bool) {
	switch strings.ToLower(strings.TrimSpace(mode)) {
	case "", "frozen":
		if registryPath != "" {
			log.Fatal("-registry only applies with -models adapted")
		}
		m, err := cmdutil.LoadModels(modelFile)
		if err != nil {
			log.Fatal(err)
		}
		return m, false
	case "adapted":
		if registryPath == "" {
			log.Fatal("-models adapted needs -registry <gob>")
		}
		if modelFile != "" {
			log.Fatal("-model_file conflicts with -models adapted (the registry supplies the bundle)")
		}
		reg, err := adapt.LoadRegistryFile(registryPath)
		if err != nil {
			log.Fatal(err)
		}
		vs := reg.Versions()
		if len(vs) == 0 {
			log.Fatalf("registry %s is empty", registryPath)
		}
		label := version
		if label == "" {
			label = vs[len(vs)-1].Label
		}
		m := reg.Get(label)
		if m == nil {
			var names []string
			for _, v := range vs {
				names = append(names, v.Label)
			}
			log.Fatalf("registry %s has no version %q (have %s)",
				registryPath, label, strings.Join(names, ", "))
		}
		log.Printf("replaying with adapted bundle %s from %s (%d versions)",
			label, registryPath, len(vs))
		return m, true
	}
	log.Fatalf("unknown -models mode %q (want frozen or adapted)", mode)
	return nil, false
}

// runSweep replays the corpus once per SLO point and prints the sweep
// table: the counterfactual attainment/accuracy at each objective, and
// with -compare the recorded stream judged against the same objective.
func runSweep(corpus *replay.Corpus, base replay.Config, points []float64, compare bool) {
	if compare {
		fmt.Printf("%8s  %9s %8s %9s  |  %9s %8s  |  %9s %8s  %s\n",
			"slo(ms)", "attain", "acc", "lat(ms)", "rec-att", "rec-acc", "d-att", "d-acc", "diverged")
	} else {
		fmt.Printf("%8s  %9s %8s %9s  %s\n", "slo(ms)", "attain", "acc", "lat(ms)", "diverged")
	}
	for _, p := range points {
		cfg := base
		cfg.SLOMS = p
		e, err := replay.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := e.Replay(corpus)
		if err != nil {
			log.Fatal(err)
		}
		if compare {
			fmt.Printf("%8.1f  %8.2f%% %7.2f%% %9.2f  |  %8.2f%% %7.2f%%  |  %+8.2f %+8.2f  %d\n",
				p, 100*res.Replayed.AttainRate, 100*res.Replayed.MeanAccuracy, res.Replayed.MeanMS,
				100*res.Recorded.AttainRate, 100*res.Recorded.MeanAccuracy,
				100*(res.Replayed.AttainRate-res.Recorded.AttainRate),
				100*(res.Replayed.MeanAccuracy-res.Recorded.MeanAccuracy),
				res.DivergedDecisions)
		} else {
			fmt.Printf("%8.1f  %8.2f%% %7.2f%% %9.2f  %d\n",
				p, 100*res.Replayed.AttainRate, 100*res.Replayed.MeanAccuracy,
				res.Replayed.MeanMS, res.DivergedDecisions)
		}
	}
}

// runRiskSweep replays the corpus once per admission quantile and
// prints the counterfactual sweep: what attainment, accuracy and
// latency the same captured inputs would have produced had the
// scheduler admitted on each q-quantile (0 = mean admission) — the
// offline way to pick a risk level before serving with it.
func runRiskSweep(corpus *replay.Corpus, base replay.Config, points []float64, compare bool) {
	if compare {
		fmt.Printf("%8s  %9s %8s %9s  |  %9s %8s  |  %9s %8s  %s\n",
			"risk_q", "attain", "acc", "lat(ms)", "rec-att", "rec-acc", "d-att", "d-acc", "diverged")
	} else {
		fmt.Printf("%8s  %9s %8s %9s  %s\n", "risk_q", "attain", "acc", "lat(ms)", "diverged")
	}
	for _, p := range points {
		q := p
		cfg := base
		cfg.RiskQuantile = &q
		e, err := replay.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := e.Replay(corpus)
		if err != nil {
			log.Fatal(err)
		}
		if compare {
			fmt.Printf("%8.3f  %8.2f%% %7.2f%% %9.2f  |  %8.2f%% %7.2f%%  |  %+8.2f %+8.2f  %d\n",
				p, 100*res.Replayed.AttainRate, 100*res.Replayed.MeanAccuracy, res.Replayed.MeanMS,
				100*res.Recorded.AttainRate, 100*res.Recorded.MeanAccuracy,
				100*(res.Replayed.AttainRate-res.Recorded.AttainRate),
				100*(res.Replayed.MeanAccuracy-res.Recorded.MeanAccuracy),
				res.DivergedDecisions)
		} else {
			fmt.Printf("%8.3f  %8.2f%% %7.2f%% %9.2f  %d\n",
				p, 100*res.Replayed.AttainRate, 100*res.Replayed.MeanAccuracy,
				res.Replayed.MeanMS, res.DivergedDecisions)
		}
	}
}

func printOutcome(label string, o replay.Outcome) {
	fmt.Printf("%-10s attain %6.2f%%   acc %6.2f%%   lat %7.2f ms   (%d decisions, %d GoFs, %d frames)\n",
		label, 100*o.AttainRate, 100*o.MeanAccuracy, o.MeanMS, o.Decisions, o.GoFs, o.Frames)
}

// reportFidelity prints the divergence stats and, under -identity,
// makes them fatal.
func reportFidelity(res *replay.Result, total int, identity bool, show int) {
	if res.DivergedDecisions == 0 && res.MissingHeavy == 0 {
		log.Printf("fidelity: %d/%d decisions reproduced exactly", total, total)
		return
	}
	log.Printf("fidelity: %d/%d decisions diverged, %d content-blind feature selections",
		res.DivergedDecisions, total, res.MissingHeavy)
	if !identity {
		return
	}
	for i, rd := range res.Divergences() {
		if i >= show {
			break
		}
		log.Printf("  %s stream %d gen %d seq %d: %v -> branch %s",
			rd.File, rd.Stream, rd.Gen, rd.Seq, rd.Diverged, rd.Branch)
	}
	log.Fatal("identity check FAILED")
}

// benchReport is the BENCH_replay.json schema.
type benchReport struct {
	Scenario struct {
		Streams int       `json:"streams"`
		Frames  int       `json:"frames"`
		Seed    int64     `json:"seed"`
		SLOsMS  []float64 `json:"slos_ms"`
	} `json:"scenario"`
	RecordWallMS float64 `json:"record_wall_ms"`
	Decisions    int     `json:"decisions"`
	GoFs         int     `json:"gofs"`
	Frames       int     `json:"frames"`
	SimMS        float64 `json:"sim_ms"`
	Identity     struct {
		ReplayWallMS    float64 `json:"replay_wall_ms"`
		GoFsPerSec      float64 `json:"gofs_per_sec"`
		Diverged        int     `json:"diverged"`
		SpeedupVsRecord float64 `json:"speedup_vs_record"`
		SpeedupVsSim    float64 `json:"speedup_vs_sim"`
	} `json:"identity"`
	SLOSweep []benchPoint `json:"slo_sweep"`
}

type benchPoint struct {
	SLOMS          float64 `json:"slo_ms"`
	Attain         float64 `json:"attain"`
	RecordedAttain float64 `json:"recorded_attain"`
	AttainDelta    float64 `json:"attain_delta"`
	MeanAcc        float64 `json:"mean_accuracy"`
	RecordedAcc    float64 `json:"recorded_mean_accuracy"`
	AccDelta       float64 `json:"accuracy_delta"`
	MeanMS         float64 `json:"mean_ms"`
	Diverged       int     `json:"diverged"`
	ReplayWallMS   float64 `json:"replay_wall_ms"`
	GoFsPerSec     float64 `json:"gofs_per_sec"`
}

// runBench records a seeded serve scenario in-process with the replay
// payload on, identity-replays it (any divergence is fatal — a
// benchmark of an infidel replay is worthless), sweeps the SLO, and
// writes the JSON report.
func runBench(path string, base replay.Config, sloSweep string, streams, frames int, seed int64) {
	if base.Policy != "" || base.SLOMS != 0 || base.SafetyFactor != 0 ||
		base.Degrade != replay.DegradeRecorded || base.UseModelPredictions ||
		base.RiskQuantile != nil {
		log.Fatal("-bench runs the canonical identity + sweep configuration; drop the what-if flags")
	}
	sweep := []float64{15, 33.3, 50, 100}
	if sloSweep != "" {
		var err error
		if sweep, err = cmdutil.ParseFloats(sloSweep); err != nil {
			log.Fatalf("bad -slo_sweep: %v", err)
		}
	}
	slos := []float64{33.3, 50, 100}

	var rep benchReport
	rep.Scenario.Streams = streams
	rep.Scenario.Frames = frames
	rep.Scenario.Seed = seed
	rep.Scenario.SLOsMS = slos

	log.Printf("recording: %d streams x %d frames, WFQ, replay payload on", streams, frames)
	observer := obs.New()
	t0 := time.Now()
	srv, err := serve.New(serve.Options{
		Models:       base.Models,
		Observer:     observer,
		ReplayTrace:  true,
		Admission:    serve.AdmissionWFQ,
		ClassWeights: map[string]int{"33.3ms": 4, "50ms": 2},
	})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < streams; i++ {
		v := vid.Generate(fmt.Sprintf("bench_%03d", i), seed+900+int64(i),
			vid.GenConfig{Frames: frames})
		if _, err := srv.Submit(serve.StreamConfig{
			Video:          v,
			SLO:            slos[i%len(slos)],
			Seed:           seed + int64(i),
			BaseContention: 0.25,
		}); err != nil {
			log.Fatal(err)
		}
	}
	srv.Drain()
	recordWall := time.Since(t0)
	corpus := replay.FromDecisions("bench", observer.Decisions())
	rep.RecordWallMS = ms(recordWall)
	rep.Decisions = corpus.Decisions()
	rep.Frames = corpus.Frames()
	rep.SimMS = corpus.SimMS()
	log.Printf("recorded %d decisions in %v (%.1f s simulated)",
		rep.Decisions, recordWall.Round(time.Millisecond), rep.SimMS/1e3)

	e, err := replay.New(base)
	if err != nil {
		log.Fatal(err)
	}
	// Warm once (page in the tables), then time the identity pass.
	if _, err := e.Replay(corpus); err != nil {
		log.Fatal(err)
	}
	t1 := time.Now()
	res, err := e.Replay(corpus)
	if err != nil {
		log.Fatal(err)
	}
	replayWall := time.Since(t1)
	if res.DivergedDecisions != 0 || res.MissingHeavy != 0 {
		log.Fatalf("identity replay diverged on %d decisions (%d content-blind) — benchmark aborted",
			res.DivergedDecisions, res.MissingHeavy)
	}
	rep.GoFs = res.Replayed.GoFs
	rep.Identity.ReplayWallMS = ms(replayWall)
	rep.Identity.GoFsPerSec = rate(res.Replayed.GoFs, replayWall)
	rep.Identity.SpeedupVsRecord = ratio(recordWall, replayWall)
	rep.Identity.SpeedupVsSim = rep.SimMS / ms(replayWall)
	log.Printf("identity: %d decisions bit-exact in %v (%.0f GoFs/sec, %.0fx vs recording, %.0fx vs simulated time)",
		rep.Decisions, replayWall.Round(time.Microsecond), rep.Identity.GoFsPerSec,
		rep.Identity.SpeedupVsRecord, rep.Identity.SpeedupVsSim)

	for _, p := range sweep {
		cfg := base
		cfg.SLOMS = p
		se, err := replay.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		t := time.Now()
		sres, err := se.Replay(corpus)
		if err != nil {
			log.Fatal(err)
		}
		w := time.Since(t)
		rep.SLOSweep = append(rep.SLOSweep, benchPoint{
			SLOMS:          p,
			Attain:         sres.Replayed.AttainRate,
			RecordedAttain: sres.Recorded.AttainRate,
			AttainDelta:    sres.Replayed.AttainRate - sres.Recorded.AttainRate,
			MeanAcc:        sres.Replayed.MeanAccuracy,
			RecordedAcc:    sres.Recorded.MeanAccuracy,
			AccDelta:       sres.Replayed.MeanAccuracy - sres.Recorded.MeanAccuracy,
			MeanMS:         sres.Replayed.MeanMS,
			Diverged:       sres.DivergedDecisions,
			ReplayWallMS:   ms(w),
			GoFsPerSec:     rate(sres.Replayed.GoFs, w),
		})
		log.Printf("sweep slo %6.1f ms: attain %6.2f%% (recorded %6.2f%%), acc %5.2f%%, %d re-decided",
			p, 100*sres.Replayed.AttainRate, 100*sres.Recorded.AttainRate,
			100*sres.Replayed.MeanAccuracy, sres.DivergedDecisions)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func rate(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

func ratio(num, den time.Duration) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}
