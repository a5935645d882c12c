// Command lrfleet runs the multi-board fleet dispatcher: N streams
// placed over M simulated boards by cost/content-aware placement, with
// live stream migration off boards that fail or become too contended.
//
// Usage:
//
//	lrfleet --boards 3 --streams 9 --slos 50,100 --mobile_device tx2 \
//	        --faults "b1:panic=0.3" --fleet_trace fleet.jsonl
//
// Placement scores every healthy board with capacity: the stream's
// predicted contention there (the board's occupancy folded through its
// coupling), the resulting per-branch latency, and the best feasible
// branch's predicted accuracy under the stream's SLO. The stream goes
// to the board whose best feasible branch maximizes accuracy; when no
// board has a feasible branch it is placed best-effort.
//
// Migration: a board whose recovered worker panics reach
// --board_panic_limit is quarantined and its streams are evacuated; a
// stream whose SLO stays infeasible on its board for --hysteresis
// barriers moves to a board with a feasible branch. Every hand-off is
// charged a migration cost (model clone plus detector warm-up).
// --no_migration disables both — the ablation baseline.
//
// Chaos: --faults takes a board-scoped spec — semicolon-separated
// entries, each a plain fault spec (fleet-wide default) or
// "<board>:<spec>" for one board, e.g. "spike=0.01;b1:panic=0.3".
// Board labels are validated against the fleet (b0..bN-1); an unknown
// label is a configuration error, not a silent no-op.
//
// Crash recovery: fail-stop board faults ("b1:crash=9" kills board b1
// permanently at round 9; "b2:blackout=5" makes b2 unresponsive for a
// few rounds) are recovered through fleet-held checkpoints: every
// --checkpoint_interval barriers each board serializes per-stream
// recovery state; a board silent past its --lease_barriers heartbeat
// lease gets --recovery_retries probes with exponential backoff (a
// blackout rides them out), then is declared dead in fleet virtual
// time, fenced, and its streams are restored onto surviving boards,
// replaying only the GoFs since their last checkpoint.
//
// Observability: -trace writes the merged scheduler decision trace,
// -fleet_trace the fleet placement/migration trace (both JSON Lines,
// byte-identical across runs for fixed seeds; a .gz suffix
// gzip-compresses either), and -metrics dumps the board-labeled metrics
// registry in Prometheus exposition format.
package main

import (
	"flag"
	"fmt"
	"log"

	"litereconfig/internal/adapt"
	"litereconfig/internal/cmdutil"
	"litereconfig/internal/fault"
	"litereconfig/internal/fleet"
	"litereconfig/internal/obs"
	"litereconfig/internal/serve"
	"litereconfig/internal/vid"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lrfleet: ")

	var board serve.BoardConfig
	boards := flag.Int("boards", 3, "number of boards in the fleet")
	streams := flag.Int("streams", 9, "number of streams to submit")
	slos := flag.String("slos", "50,100", "comma-separated per-frame SLOs in ms, cycled across streams")
	policies := flag.String("policies", "full", "comma-separated scheduler policies, cycled across streams (full, mincost, maxcontent-resnet, maxcontent-mobilenet)")
	device := flag.String("mobile_device", "tx2", "device for every board: tx2 or xv")
	flag.IntVar(&board.GPUSlots, "gpu_slots", 2, "per-board worker pool size / GPU slot count")
	flag.Float64Var(&board.Coupling, "coupling", serve.DefaultCoupling, "per-board cross-stream occupancy-to-contention coupling")
	flag.Float64Var(&board.RoundMS, "round_ms", serve.DefaultRoundMS, "simulated board round length in ms")
	frames := flag.Int("frames", 120, "frames per stream video")
	seed := flag.Int64("seed", 7, "base seed for stream videos")
	faults := flag.String("faults", "", `board-scoped fault spec: semicolon-separated entries, each "<spec>" (fleet-wide) or "<board>:<spec>", e.g. "spike=0.01;b1:panic=0.3"`)
	panicLimit := flag.Int("board_panic_limit", fleet.DefaultBoardPanicLimit, "recovered worker panics before a board is quarantined and evacuated")
	hysteresis := flag.Int("hysteresis", fleet.DefaultHysteresis, "consecutive infeasible barriers before an SLO-driven migration")
	maxMigrations := flag.Int("max_migrations", fleet.DefaultMaxMigrations, "per-stream board hand-off cap")
	cloneMS := flag.Float64("clone_ms", fleet.DefaultCloneMS, "model-clone share of the migration cost in ms")
	noMigration := flag.Bool("no_migration", false, "disable live migration (ablation baseline)")
	ckptInterval := flag.Int("checkpoint_interval", fleet.DefaultCheckpointInterval, "fleet barriers between checkpoint sweeps for crash recovery (negative disables checkpointing)")
	leaseBarriers := flag.Int("lease_barriers", 0, "missed barrier heartbeats before a board is suspect (0 = default)")
	recoveryRetries := flag.Int("recovery_retries", 0, "probes a suspect board gets before it is declared dead (0 = default, negative = none)")
	adaptOn := flag.Bool("adapt", false, "enable online model adaptation on every board (per-stream refit with champion-challenger rollout)")
	adaptStagger := flag.Bool("adapt_stagger", false, "stage the adaptation rollout board by board: each board's promotions unlock only after the previous board promoted (requires -adapt)")
	modelFile := flag.String("models", "", "trained model file from lrtrain (trains a small model set if empty)")
	traceFile := flag.String("trace", "", "write the merged scheduler decision trace (JSON Lines) to this file; a .gz suffix gzip-compresses it")
	fleetTrace := flag.String("fleet_trace", "", "write the fleet placement/migration trace (JSON Lines) to this file; a .gz suffix gzip-compresses it")
	replayTrace := flag.Bool("replay_trace", false, "enrich the decision trace with the scheduler-input replay payload (for lrreplay); traces get large")
	riskQ := flag.Float64("risk_q", 0, "probabilistic SLO admission quantile in (0,1), e.g. 0.95: boards admit branches on the q-quantile latency and placement ranks boards by SLO-attainment probability (0 = legacy mean admission)")
	metrics := flag.Bool("metrics", false, "print the metrics registry (Prometheus exposition format) after the run")
	flag.Parse()

	if *adaptStagger && !*adaptOn {
		log.Fatal("-adapt_stagger requires -adapt")
	}
	var err error
	if board.Device, err = cmdutil.Device(*device); err != nil {
		log.Fatal(err)
	}
	sloList, err := cmdutil.ParseFloats(*slos)
	if err != nil {
		log.Fatalf("bad --slos: %v", err)
	}
	policyList, err := cmdutil.ParsePolicies(*policies)
	if err != nil {
		log.Fatal(err)
	}
	var boardNames []string
	for i := 0; i < *boards; i++ {
		boardNames = append(boardNames, fmt.Sprintf("b%d", i))
	}
	faultSpecs, err := cmdutil.BoardFaults(*faults, boardNames, *seed)
	if err != nil {
		log.Fatal(err)
	}
	models, err := cmdutil.LoadModels(*modelFile)
	if err != nil {
		log.Fatal(err)
	}

	var observer *obs.Observer
	if *traceFile != "" || *fleetTrace != "" || *metrics {
		observer = obs.New()
	}

	var boardCfgs []fleet.BoardConfig
	for _, name := range boardNames {
		bc := board
		bc.Name = name
		bc.Faults = fault.BoardConfig(faultSpecs, name)
		boardCfgs = append(boardCfgs, bc)
	}
	var adaptCfg *adapt.Config
	if *adaptOn {
		adaptCfg = &adapt.Config{}
	}
	fl, err := fleet.New(fleet.Options{
		Models:             models,
		Boards:             boardCfgs,
		BoardPanicLimit:    *panicLimit,
		Hysteresis:         *hysteresis,
		MaxMigrations:      *maxMigrations,
		CloneMS:            *cloneMS,
		DisableMigration:   *noMigration,
		Observer:           observer,
		Adapt:              adaptCfg,
		AdaptStagger:       *adaptStagger,
		CheckpointInterval: *ckptInterval,
		LeaseBarriers:      *leaseBarriers,
		RecoveryRetries:    *recoveryRetries,
		RecoverySeed:       *seed,
		ReplayTrace:        *replayTrace,
		RiskQuantile:       *riskQ,
	})
	if err != nil {
		log.Fatal(err)
	}

	log.Printf("fleet of %d boards on %s: %d GPU slots each, coupling %.2f, round %.0f ms",
		*boards, board.Device.Name, board.GPUSlots, board.Coupling, board.RoundMS)
	if *faults != "" {
		log.Printf("fault injection on: %s (seed %d)", *faults, *seed)
	}
	submitted := 0
	for i := 0; i < *streams; i++ {
		v := vid.Generate(fmt.Sprintf("fleet_%03d", i), *seed+300000+int64(i),
			vid.GenConfig{Frames: *frames})
		_, err := fl.Submit(serve.StreamConfig{
			Name:   fmt.Sprintf("stream-%d", i),
			Video:  v,
			SLO:    sloList[i%len(sloList)],
			Policy: policyList[i%len(policyList)],
			Seed:   *seed + int64(i),
		})
		if err != nil {
			log.Printf("stream %d: %v", i, err)
			continue
		}
		submitted++
	}
	log.Printf("%d/%d streams accepted, running...", submitted, *streams)

	rep := fl.Run()
	for i := range rep.Streams {
		fmt.Println(rep.Streams[i].Summary())
	}
	fmt.Println()
	fmt.Print(rep.Summary())

	if *traceFile != "" {
		if err := cmdutil.WriteTrace(*traceFile, rep.WriteTrace, len(rep.Decisions()), "decisions"); err != nil {
			log.Fatal(err)
		}
	}
	if *fleetTrace != "" {
		if err := cmdutil.WriteTrace(*fleetTrace, rep.WriteFleetTrace, len(rep.FleetEvents()), "fleet events"); err != nil {
			log.Fatal(err)
		}
	}
	if *metrics {
		fmt.Println()
		fmt.Print(rep.Metrics().Text())
	}
}
