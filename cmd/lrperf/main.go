// Command lrperf is the continuous performance driver: it sweeps the
// perf configuration matrix — {streams, boards, contention, faults,
// adapt, admission} × {small, medium} — and emits a comparable JSON
// report (BENCH_perf.json) with wall-clock mean/p50/p99 per simulated
// GoF, GoF throughput per wall second, and allocs/op + bytes/op on the
// scheduler decision path and the per-stream model clone. With -compare
// it gates the fresh run against a committed baseline: any allocs/op
// growth fails hard, wall time fails beyond a soft calibration-normalized
// tolerance.
//
// Usage:
//
//	lrperf -scale all -out BENCH_perf.json
//	lrperf -scale small -compare BENCH_perf.json         # CI gate
//	lrperf -scale all -out BENCH_perf.json -campaign before.json
package main

import (
	"flag"
	"fmt"
	"os"

	"litereconfig/internal/fixture"
	"litereconfig/internal/perf"
)

func main() {
	var (
		scale    = flag.String("scale", "small", "matrix scale: small|medium|all")
		cellsSub = flag.String("cells", "", "only run cells whose name contains this substring")
		out      = flag.String("out", "", "write the JSON report to this path")
		compare  = flag.String("compare", "", "gate this run against the baseline report at this path")
		wallTol  = flag.Float64("wall_tol", 0.15, "soft wall-time tolerance for -compare (negative disables)")
		seed     = flag.Int64("seed", 1, "sweep seed (drives every cell's realization)")
		decOps   = flag.Int("decision_ops", 300, "measured iterations of the decision-path alloc loop")
		campaign = flag.String("campaign", "", "before-report path: embed a before/after campaign record in -out")
		note     = flag.String("campaign_note", "", "free-text note stored with the campaign record")
		quiet    = flag.Bool("q", false, "suppress per-cell progress lines")
	)
	flag.Parse()

	cells, err := perf.Matrix(*scale)
	if err != nil {
		fatal(err)
	}
	cells = perf.FilterCells(cells, *cellsSub)
	if len(cells) == 0 {
		fatal(fmt.Errorf("no cells match -cells %q at -scale %q", *cellsSub, *scale))
	}

	set, err := fixture.Small()
	if err != nil {
		fatal(fmt.Errorf("train fixture models: %w", err))
	}

	opts := perf.RunOptions{Seed: *seed, DecisionOps: *decOps}
	if !*quiet {
		opts.Log = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	rep, err := perf.Run(set.Models, cells, opts)
	if err != nil {
		fatal(err)
	}

	if *campaign != "" {
		before, err := loadReport(*campaign)
		if err != nil {
			fatal(fmt.Errorf("load campaign before-report: %w", err))
		}
		rep.Campaign = perf.BuildCampaign(before, rep, *note)
	}

	if *out != "" {
		b, err := rep.Marshal()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d cells)\n", *out, len(rep.Cells))
	}

	if *compare != "" {
		base, err := loadReport(*compare)
		if err != nil {
			fatal(fmt.Errorf("load baseline: %w", err))
		}
		gate := perf.Compare(rep, base, *wallTol)
		fmt.Print(gate.Summary())
		if !gate.OK() {
			os.Exit(1)
		}
	}

	if *out == "" && *compare == "" {
		b, err := rep.Marshal()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
	}
}

func loadReport(path string) (*perf.Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return perf.Unmarshal(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lrperf:", err)
	os.Exit(1)
}
