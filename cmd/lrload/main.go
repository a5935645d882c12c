// Command lrload runs a named open-world workload scenario against the
// fleet: seeded open-loop arrivals (constant, diurnal or flash-crowd
// rate curves, heavy-tailed session lengths) stamped with tenant and
// SLO tier, served under weighted-fair admission with tier preemption —
// or the FIFO ablation — and reports per-tier SLO attainment and tail
// latency.
//
// Usage:
//
//	lrload -scenario flashcrowd -scale small -out BENCH_workload.json
//	lrload -scenario flashcrowd -no_wfq          # FIFO ablation
//	lrload -scenario flashcrowd -compare         # both, plus the delta
//	lrload -scenario flashcrowd -bench_risk -out BENCH_risk.json
//	                                             # risk vs mean admission
//
// Scenarios: diurnal (day/night rate curve), flashcrowd (steady trickle
// plus one intense burst), heavytail (flat rate, elephant-and-mice
// session lengths). Scales: small (CI smoke), medium, large.
//
// The default policy is WFQ admission with tier preemption: gold
// (weight 4) outranks silver (2) outranks best-effort (1), and a board
// evicts best-effort streams when a higher tier's SLO is infeasible
// under its occupancy. -no_wfq reverts to the single FIFO queue with no
// preemption — the closed-loop engine's behavior — and -compare runs
// both on the same arrival schedule and emits the gold-tier attainment
// delta.
//
// Observability: -trace and -fleet_trace write the scheduler decision
// and fleet workload traces (JSON Lines, byte-identical across runs for
// a fixed seed — arrivals, departures and preemptions included; a .gz
// suffix gzip-compresses either);
// -metrics dumps the per-tier/per-tenant labeled metrics registry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"litereconfig/internal/cmdutil"
	"litereconfig/internal/fleet"
	"litereconfig/internal/metric"
	"litereconfig/internal/obs"
	"litereconfig/internal/serve"
	"litereconfig/internal/workload"
)

// tierBench is one tier's row of the workload bench artifact.
type tierBench struct {
	Tier           string  `json:"tier"`
	SLOMS          float64 `json:"slo_ms"`
	Weight         int     `json:"weight"`
	Arrivals       int     `json:"arrivals"`
	Completed      int     `json:"completed"`
	Rejected       int     `json:"rejected"`
	Preemptions    int     `json:"preemptions"`
	PreemptRetired int     `json:"preempt_retired"`
	Attained       int     `json:"attained"`
	AttainRate     float64 `json:"attain_rate"`
	MeanMS         float64 `json:"mean_ms"`
	P99MS          float64 `json:"p99_ms"`
	ViolationRate  float64 `json:"violation_rate"`
}

// runBench is one policy's full-run results.
type runBench struct {
	Policy      string      `json:"policy"`
	Arrivals    int         `json:"arrivals"`
	Streams     int         `json:"streams"`
	Rejected    int         `json:"rejected"`
	Preemptions int         `json:"preemptions"`
	AttainRate  float64     `json:"attain_rate"`
	Barriers    int         `json:"barriers"`
	Tiers       []tierBench `json:"tiers"`
}

// benchOut is the BENCH_workload.json schema; the risk-admission bench
// (-bench_risk, BENCH_risk.json) reuses it with Bench "risk" and the
// risk_* / coverage fields populated.
type benchOut struct {
	Bench           string     `json:"bench"`
	Scenario        string     `json:"scenario"`
	Scale           string     `json:"scale"`
	Seed            int64      `json:"seed"`
	Device          string     `json:"device"`
	Boards          int        `json:"boards"`
	GPUSlots        int        `json:"gpu_slots"`
	Runs            []runBench `json:"runs"`
	GoldAttainDelta *float64   `json:"gold_attain_delta,omitempty"`
	// Risk bench extras: the admission quantile, the gold-tier deltas of
	// the risk run against the mean ablation (positive = risk admission
	// wins: fewer SLO misses, lower p99), and the empirical
	// prediction-interval coverage of the risk run per branch.
	RiskQ              float64            `json:"risk_q,omitempty"`
	GoldViolationDelta *float64           `json:"gold_violation_delta,omitempty"`
	GoldP99DeltaMS     *float64           `json:"gold_p99_delta_ms,omitempty"`
	OverallCoverage    *float64           `json:"overall_coverage,omitempty"`
	CoverageSamples    int                `json:"coverage_samples,omitempty"`
	Coverage           map[string]float64 `json:"coverage,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lrload: ")

	var board serve.BoardConfig
	scenario := flag.String("scenario", "flashcrowd", "workload scenario: diurnal, flashcrowd or heavytail")
	scale := flag.String("scale", "small", "scenario scale: small, medium or large")
	seed := flag.Int64("seed", 7, "workload seed (arrival times, tiers, tenants, videos)")
	boards := flag.Int("boards", 1, "number of boards in the fleet")
	device := flag.String("mobile_device", "tx2", "device for every board: tx2 or xv")
	flag.IntVar(&board.GPUSlots, "gpu_slots", 2, "per-board worker pool size / GPU slot count")
	flag.Float64Var(&board.MaxOccupancy, "max_occupancy", 0, "per-board admission occupancy threshold (0 = engine default)")
	flag.Float64Var(&board.Coupling, "coupling", serve.DefaultCoupling, "per-board cross-stream occupancy-to-contention coupling")
	flag.Float64Var(&board.RoundMS, "round_ms", serve.DefaultRoundMS, "simulated board round length in ms")
	noWFQ := flag.Bool("no_wfq", false, "FIFO ablation: single submission-order queue, no preemption")
	compare := flag.Bool("compare", false, "run both WFQ+preemption and the FIFO ablation on the same schedule")
	riskQ := flag.Float64("risk_q", 0, "probabilistic SLO admission quantile in (0,1), e.g. 0.95 (0 = legacy mean admission)")
	benchRisk := flag.Bool("bench_risk", false, "run the scenario under risk admission (at -risk_q, default 0.95) and the mean ablation on the same schedule, and emit the risk bench artifact (tail SLO misses + calibration coverage)")
	covBand := flag.String("coverage_band", "", "with -bench_risk: fail (exit 1) unless overall p95 interval coverage lands in \"lo,hi\", e.g. 0.90,0.99 — the CI calibration smoke")
	outFile := flag.String("out", "", "write the bench artifact (JSON) to this file")
	modelFile := flag.String("models", "", "trained model file from lrtrain (trains a small model set if empty)")
	traceFile := flag.String("trace", "", "write the merged scheduler decision trace (JSON Lines) to this file; a .gz suffix gzip-compresses it")
	fleetTrace := flag.String("fleet_trace", "", "write the fleet workload trace (JSON Lines) to this file; a .gz suffix gzip-compresses it")
	metrics := flag.Bool("metrics", false, "print the metrics registry (Prometheus exposition format) after the run")
	flag.Parse()

	var covLo, covHi float64
	if *covBand != "" {
		if !*benchRisk {
			log.Fatal("-coverage_band needs -bench_risk")
		}
		if _, err := fmt.Sscanf(*covBand, "%f,%f", &covLo, &covHi); err != nil {
			log.Fatalf("bad -coverage_band %q (want lo,hi): %v", *covBand, err)
		}
	}
	var err error
	if board.Device, err = cmdutil.Device(*device); err != nil {
		log.Fatal(err)
	}
	wcfg, err := workload.Scenario(*scenario, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	models, err := cmdutil.LoadModels(*modelFile)
	if err != nil {
		log.Fatal(err)
	}

	runOne := func(wfq bool, observed bool, risk float64) (*fleet.Report, runBench) {
		sched, err := workload.Generate(wcfg)
		if err != nil {
			log.Fatal(err)
		}
		var observer *obs.Observer
		// Risk runs always observe: the calibration report needs the
		// decision trace.
		if (observed && (*traceFile != "" || *fleetTrace != "" || *metrics)) || risk > 0 {
			observer = obs.New()
		}
		var boardCfgs []fleet.BoardConfig
		for i := 0; i < *boards; i++ {
			bc := board
			bc.Name = fmt.Sprintf("b%d", i)
			boardCfgs = append(boardCfgs, bc)
		}
		opts := fleet.Options{
			Models:       models,
			Boards:       boardCfgs,
			Source:       sched,
			TickMS:       board.RoundMS,
			Observer:     observer,
			RiskQuantile: risk,
		}
		if wfq {
			opts.Admission = serve.AdmissionWFQ
			opts.ClassWeights = workload.Weights(wcfg.Tiers)
			opts.Preempt = true
		}
		fl, err := fleet.New(opts)
		if err != nil {
			log.Fatal(err)
		}
		rep := fl.Run()
		run := summarizeRun(rep, wcfg.Tiers, wfq)
		if risk > 0 {
			run.Policy += fmt.Sprintf("+risk-q%g", risk)
		}
		return rep, run
	}

	policyName := func(wfq bool) string {
		if wfq {
			return "wfq+preempt"
		}
		return "fifo"
	}

	out := benchOut{
		Bench:    "workload",
		Scenario: *scenario,
		Scale:    *scale,
		Seed:     *seed,
		Device:   board.Device.Name,
		Boards:   *boards,
		GPUSlots: board.GPUSlots,
	}
	var mainRep *fleet.Report
	switch {
	case *benchRisk:
		q := *riskQ
		if q == 0 {
			q = 0.95
		}
		out.Bench = "risk"
		out.RiskQ = q
		wfq := !*noWFQ
		log.Printf("scenario %s/%s seed %d: risk admission q=%g vs mean ablation (%s)",
			*scenario, *scale, *seed, q, policyName(wfq))
		repR, runR := runOne(wfq, true, q)
		_, runM := runOne(wfq, false, 0)
		out.Runs = append(out.Runs, runR, runM)
		dViol := tierRow(runM, "gold").ViolationRate - tierRow(runR, "gold").ViolationRate
		dP99 := tierRow(runM, "gold").P99MS - tierRow(runR, "gold").P99MS
		out.GoldViolationDelta = &dViol
		out.GoldP99DeltaMS = &dP99
		if cal := obs.RiskCalibration(repR.Decisions()); cal != nil {
			cov, n := cal.Overall()
			out.OverallCoverage = &cov
			out.CoverageSamples = n
			out.Coverage = map[string]float64{}
			for _, k := range cal.Keys() {
				c, _ := cal.Coverage(k)
				out.Coverage[k] = c
			}
			fmt.Print(cal.Report())
		}
		if *covBand != "" {
			if out.OverallCoverage == nil {
				log.Fatal("coverage band requested but the run produced no risk decisions")
			}
			if c := *out.OverallCoverage; c < covLo || c > covHi {
				log.Fatalf("calibration smoke FAILED: overall p95 coverage %.3f outside [%.2f, %.2f] (%d decisions)",
					c, covLo, covHi, out.CoverageSamples)
			}
			log.Printf("calibration smoke ok: coverage %.3f in [%.2f, %.2f] (%d decisions)",
				*out.OverallCoverage, covLo, covHi, out.CoverageSamples)
		}
		mainRep = repR
	case *compare:
		log.Printf("scenario %s/%s seed %d: comparing wfq+preempt vs fifo", *scenario, *scale, *seed)
		repW, runW := runOne(true, true, *riskQ)
		_, runF := runOne(false, false, *riskQ)
		out.Runs = append(out.Runs, runW, runF)
		delta := tierAttain(runW, "gold") - tierAttain(runF, "gold")
		out.GoldAttainDelta = &delta
		mainRep = repW
	default:
		wfq := !*noWFQ
		log.Printf("scenario %s/%s seed %d: policy %s", *scenario, *scale, *seed, policyName(wfq))
		rep, run := runOne(wfq, true, *riskQ)
		out.Runs = append(out.Runs, run)
		mainRep = rep
	}

	fmt.Print(mainRep.Summary())
	for _, run := range out.Runs {
		fmt.Printf("policy %s: arrivals=%d streams=%d rejected=%d preemptions=%d attain=%.0f%%\n",
			run.Policy, run.Arrivals, run.Streams, run.Rejected,
			run.Preemptions, run.AttainRate*100)
		for _, t := range run.Tiers {
			fmt.Printf("  tier %-10s slo=%5.1fms arrivals=%d completed=%d rejected=%d attained=%d (%.0f%%) p99=%.1fms preempt=%d\n",
				t.Tier, t.SLOMS, t.Arrivals, t.Completed, t.Rejected,
				t.Attained, t.AttainRate*100, t.P99MS, t.Preemptions)
		}
	}
	if out.GoldAttainDelta != nil {
		fmt.Printf("gold attain delta (wfq - fifo): %+.0f%%\n", *out.GoldAttainDelta*100)
	}

	if *outFile != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*outFile, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %s", *outFile)
	}

	if *traceFile != "" {
		if err := cmdutil.WriteTrace(*traceFile, mainRep.WriteTrace, len(mainRep.Decisions()), "decisions"); err != nil {
			log.Fatal(err)
		}
	}
	if *fleetTrace != "" {
		if err := cmdutil.WriteTrace(*fleetTrace, mainRep.WriteFleetTrace, len(mainRep.FleetEvents()), "fleet events"); err != nil {
			log.Fatal(err)
		}
	}
	if *metrics {
		fmt.Println()
		fmt.Print(mainRep.Metrics().Text())
	}
}

// summarizeRun folds a fleet report into the bench row set: per-tier
// conservation counts from the report's Classes plus tail latency
// pooled over each tier's per-frame samples.
func summarizeRun(rep *fleet.Report, tiers []workload.Tier, wfq bool) runBench {
	run := runBench{
		Arrivals:    rep.Arrivals,
		Streams:     len(rep.Streams),
		Rejected:    rep.Rejected,
		Preemptions: rep.Preemptions,
		AttainRate:  rep.AttainRate,
		Barriers:    rep.Barriers,
	}
	if wfq {
		run.Policy = "wfq+preempt"
	} else {
		run.Policy = "fifo"
	}
	classes := map[string]serve.ClassStats{}
	for _, c := range rep.Classes {
		classes[c.Class] = c
	}
	for _, tier := range tiers {
		c := classes[tier.Name]
		tb := tierBench{
			Tier:           tier.Name,
			SLOMS:          tier.SLOMS,
			Weight:         tier.Weight,
			Arrivals:       rep.ArrivalsByClass[tier.Name],
			Completed:      c.Completed,
			Rejected:       c.Rejected,
			Preemptions:    c.Preemptions,
			PreemptRetired: c.PreemptRetired,
			Attained:       c.Attained,
			AttainRate:     c.AttainRate,
			ViolationRate:  c.ViolationRate,
		}
		var pool metric.LatencySeries
		for i := range rep.Streams {
			r := &rep.Streams[i]
			if r.Class != tier.Name || r.Raw == nil {
				continue
			}
			for _, ms := range r.Raw.Latency.Samples() {
				pool.Add(ms)
			}
		}
		tb.MeanMS = pool.Mean()
		tb.P99MS = pool.P99()
		run.Tiers = append(run.Tiers, tb)
	}
	return run
}

// tierAttain reads one tier's attainment rate out of a run row.
func tierAttain(run runBench, tier string) float64 {
	return tierRow(run, tier).AttainRate
}

// tierRow reads one tier's bench row (zero value when absent).
func tierRow(run runBench, tier string) tierBench {
	for _, t := range run.Tiers {
		if t.Tier == tier {
			return t
		}
	}
	return tierBench{}
}
