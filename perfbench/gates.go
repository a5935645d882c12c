package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"litereconfig/internal/obs"
	"litereconfig/internal/serve"
)

// simStats is the simulated outcome of a workload: what the served
// streams experienced on the simulated boards, pooled over the
// iterations of one cycle. Every field is a pure function of the seed
// and the code.
type simStats struct {
	// AttainRate is the share of arrived streams that completed within
	// their SLO; rejected, preempt-retired, quarantined and fleet-retired
	// streams count as misses. GoldAttainRate is the same for the gold
	// tier.
	AttainRate     float64 `json:"attain_rate"`
	GoldAttainRate float64 `json:"gold_attain_rate"`
	// FrameViolationRate is the share of served frames over their SLO.
	FrameViolationRate float64 `json:"frame_violation_rate"`
	// P50FrameMS and P99FrameMS are percentiles of the GoF-averaged
	// per-frame latency over all executed GoFs.
	P50FrameMS float64 `json:"sim_p50_frame_ms"`
	P99FrameMS float64 `json:"sim_p99_frame_ms"`
	// MAP is the frame-weighted mean mAP@0.5.
	MAP float64 `json:"map"`
	// StreamFailRate is (rejected + quarantined + retired) / arrivals.
	StreamFailRate float64 `json:"stream_fail_rate"`
	GoFs           int     `json:"gofs"`
	Arrivals       int     `json:"arrivals"`
}

// simParts are the poolable ingredients of simStats for one iteration.
type simParts struct {
	arrivals, goldArrivals int
	attained, goldAttained int
	failed, frames         int
	violatedFrames, mapSum float64
	latMS                  []float64 // GoF-averaged per-frame latency per executed GoF
	gofs                   int
}

// poolSim combines the ingredients of several iterations.
func poolSim(parts []simParts) simStats {
	var p simParts
	for _, q := range parts {
		p.arrivals += q.arrivals
		p.goldArrivals += q.goldArrivals
		p.attained += q.attained
		p.goldAttained += q.goldAttained
		p.failed += q.failed
		p.frames += q.frames
		p.violatedFrames += q.violatedFrames
		p.mapSum += q.mapSum
		p.latMS = append(p.latMS, q.latMS...)
		p.gofs += q.gofs
	}
	s := simStats{GoFs: p.gofs, Arrivals: p.arrivals}
	if p.arrivals > 0 {
		s.AttainRate = float64(p.attained) / float64(p.arrivals)
		s.StreamFailRate = float64(p.failed) / float64(p.arrivals)
	}
	if p.goldArrivals > 0 {
		s.GoldAttainRate = float64(p.goldAttained) / float64(p.goldArrivals)
	}
	if p.frames > 0 {
		s.FrameViolationRate = p.violatedFrames / float64(p.frames)
		s.MAP = p.mapSum / float64(p.frames)
	}
	s.P50FrameMS = quantile(p.latMS, 0.50)
	s.P99FrameMS = quantile(p.latMS, 0.99)
	return s
}

// outcome gathers what an engine run reports, in the form shared by the
// single-board and the fleet workloads.
type outcome struct {
	rows      []serve.StreamResult
	classes   []serve.ClassStats
	arrivals  map[string]int // per SLO class
	decisions []obs.Decision
	metrics   obs.Snapshot
	// lostInFlight bounds the decisions a board crash may have lost:
	// every stream incarnation that died with its board had at most one
	// decision open (its GoF in flight) that was never recorded.
	lostInFlight int
}

const goldTier = "gold"

func (o outcome) simParts() simParts {
	var p simParts
	for class, n := range o.arrivals {
		p.arrivals += n
		if class == goldTier {
			p.goldArrivals = n
		}
	}
	for _, r := range o.rows {
		p.frames += r.Frames
		p.violatedFrames += r.ViolationRate * float64(r.Frames)
		p.mapSum += r.MAP * float64(r.Frames)
		if r.Quarantined && !r.FleetRetired {
			p.failed++
		}
		if r.MeetsSLO && !r.Quarantined && !r.FleetRetired && !r.PreemptRetired {
			p.attained++
			if r.Class == goldTier {
				p.goldAttained++
			}
		}
	}
	for _, c := range o.classes {
		p.failed += c.Rejected + c.Retired
	}
	for _, d := range o.decisions {
		if d.GoFFrames > 0 {
			p.latMS = append(p.latMS, d.RealizedMS)
		}
	}
	p.gofs = len(o.decisions)
	return p
}

// counts reads the layer counts common to every engine run.
func (o outcome) counts() map[string]float64 {
	c := map[string]float64{
		"core.decisions": float64(len(o.decisions)),
	}
	for name, v := range o.metrics.Counters {
		if base, _, _ := strings.Cut(name, "{"); base == "serve_model_clones_total" {
			c["sched.clones"] += v
		}
	}
	var wait []float64
	for _, r := range o.rows {
		wait = append(wait, float64(r.WaitRounds))
	}
	c["serve.wait_rounds_p99"] = quantile(wait, 0.99)
	return c
}

// gates checks the correctness conditions every iteration must meet.
// conservation enables the fleet's four-bucket accounting check.
func (o outcome) gates(conservation bool) error {
	if len(o.decisions) == 0 {
		return fmt.Errorf("no decisions recorded")
	}
	// Four-bucket conservation, per tier: every arrival ends completed,
	// rejected, retired or recovered — exactly once.
	if conservation {
		seen := map[string]bool{}
		for _, c := range o.classes {
			seen[c.Class] = true
			if got := c.Completed + c.Rejected + c.Retired + c.Recovered; got != o.arrivals[c.Class] {
				return fmt.Errorf("conservation: tier %s has %d arrivals but %d completed+rejected+retired+recovered",
					c.Class, o.arrivals[c.Class], got)
			}
		}
		for class, n := range o.arrivals {
			if n > 0 && !seen[class] {
				return fmt.Errorf("conservation: tier %s has %d arrivals and no outcome row", class, n)
			}
		}
	}
	// The recorded GoFs must equal the per-stream decision counts: every
	// (stream, generation) chain numbers its decisions 0..n-1 with no gap
	// or duplicate, and the chains add up to the scheduler's own count.
	type chain struct{ stream, gen int }
	perStream := map[chain]int{}
	for _, d := range o.decisions {
		k := chain{d.Stream, d.Gen}
		if d.Seq != perStream[k] {
			return fmt.Errorf("decision chain stream %d gen %d: seq %d where %d was due",
				d.Stream, d.Gen, d.Seq, perStream[k])
		}
		perStream[k]++
	}
	sum := 0
	for _, n := range perStream {
		sum += n
	}
	sched := int(o.metrics.Counters["sched_decisions_total"])
	if sum != len(o.decisions) || sched < sum || sched > sum+o.lostInFlight {
		return fmt.Errorf("recorded %d GoFs, per-stream decisions sum to %d, scheduler counted %d (%d may be lost in flight)",
			len(o.decisions), sum, sched, o.lostInFlight)
	}
	return nil
}

// simRecord is the simulated part of an iteration, kept on disk per
// source hash, workload and seed so that every later run of the same
// code and seed can be checked against the first.
type simRecord struct {
	Sim    simStats           `json:"sim"`
	Counts map[string]float64 `json:"counts"`
}

// checkSimRecord compares rec with the record an earlier run of the same
// sources, workload and seed left, or stores rec when there is none.
func checkSimRecord(hash, wl string, seed int64, rec simRecord) error {
	path := filepath.Join(buildDir, "sim", fmt.Sprintf("%s-%s-%d.json", hash, wl, seed))
	want, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if prev, err := os.ReadFile(path); err == nil {
		if string(prev) != string(want) {
			return fmt.Errorf("simulated metrics differ from an earlier run of the same code and seed:\n  was %s\n  now %s",
				prev, want)
		}
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	if err := os.WriteFile(tmp, want, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// sameSim reports whether two iterations produced identical simulated
// outcomes and layer counts.
func sameSim(a, b *iteration) bool {
	return reflect.DeepEqual(a.sim, b.sim) && reflect.DeepEqual(a.counts, b.counts)
}
