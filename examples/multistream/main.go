// Multistream: serve a growing number of concurrent camera streams on
// one simulated board and watch (1) cross-stream contention rise as the
// board fills, (2) SLO attainment degrade, and (3) the Full policy react
// to its neighbors — reconfiguring branches as the coupled contention
// climbs — while the content-agnostic MinCost variant sits on its one
// cheap branch.
//
//	go run ./examples/multistream
package main

import (
	"fmt"
	"log"

	"litereconfig/internal/core"
	"litereconfig/internal/fixture"
	"litereconfig/internal/serve"
	"litereconfig/internal/vid"
)

const (
	slo    = 33.3 // ms per frame (30 fps)
	frames = 100
)

// board serves n streams of the given policy and returns the report.
func board(set *fixture.Setup, n int, policy core.Policy) *serve.Result {
	srv, err := serve.New(serve.Options{Models: set.Models,
		BoardConfig: serve.BoardConfig{GPUSlots: 2}})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v := vid.Generate(fmt.Sprintf("cam%d", i), 9000+int64(i),
			vid.GenConfig{Frames: frames})
		if _, err := srv.Submit(serve.StreamConfig{
			Name: fmt.Sprintf("cam%d", i), Video: v, SLO: slo,
			Policy: policy, Seed: 50 + int64(i),
		}); err != nil {
			log.Fatal(err)
		}
	}
	return srv.Drain()
}

func main() {
	log.SetFlags(0)
	log.Println("training scheduler models...")
	set, err := fixture.Small()
	if err != nil {
		log.Fatal(err)
	}

	// Part 1: the board fills up. Every stream runs the full
	// LiteReconfig policy; the only contention is the other streams.
	fmt.Printf("\n=== one board, more and more streams (SLO %.1f ms) ===\n", slo)
	fmt.Printf("%8s  %14s  %10s  %10s  %8s\n",
		"streams", "cross-cont", "attain", "violation", "switches")
	for _, n := range []int{1, 2, 4, 8} {
		r := board(set, n, core.PolicyFull)
		violation, switches := 0.0, 0
		for _, st := range r.Streams {
			violation += st.ViolationRate / float64(len(r.Streams))
			switches += st.Switches
		}
		fmt.Printf("%8d  %14.2f  %9.0f%%  %9.1f%%  %8d\n",
			n, r.MeanContention, r.AttainRate*100, violation*100, switches)
	}

	// Part 2: how do the variants steer on a crowded board? Both sense
	// the coupled contention and reconfigure away from blown budgets
	// (cost-awareness), but only the Full policy keeps spending on heavy
	// content features to pick the most accurate branch that still fits.
	fmt.Println("\n=== 8 crowded streams: Full vs MinCost ===")
	for _, p := range []core.Policy{core.PolicyFull, core.PolicyMinCost} {
		r := board(set, 8, p)
		switches, heavy := 0, 0
		mAP := 0.0
		for _, st := range r.Streams {
			switches += st.Switches
			mAP += st.MAP / float64(len(r.Streams))
			for _, n := range st.Raw.FeatureUse {
				heavy += n
			}
		}
		fmt.Printf("%-22s attain=%3.0f%%  mAP=%5.1f%%  switches=%2d  heavy-feature-decisions=%3d\n",
			r.Streams[0].Policy, r.AttainRate*100, mAP*100, switches, heavy)
	}
	fmt.Println("\nBoth variants reconfigure as their neighbors heat the board, but")
	fmt.Println("only Full pays for content features to steer the reconfiguration.")
}
