package replay

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"litereconfig/internal/adapt"
	"litereconfig/internal/fault"
	"litereconfig/internal/fixture"
	"litereconfig/internal/obs"
	"litereconfig/internal/serve"
	"litereconfig/internal/vid"
)

var updateCounterfactual = flag.Bool("update_counterfactual", false,
	"rewrite testdata/counterfactual.golden")

// counterfactualKnobs are the knob sets the counterfactual golden pins:
// every override Config offers, each alone, plus the combinations that
// reach the fallback (an SLO nothing fits), move the simulated watchdog
// ladder (mean admission over a loosened budget) down to its floor (an
// SLO only the cheapest branches meet, under a doubled budget), make
// the stall guard bind (MobileNetV2 priced between 1x and 1.5x the SLO)
// and give hysteresis to variants that must ignore it.
func counterfactualKnobs() []struct {
	name string
	cfg  Config
} {
	f := func(v float64) *float64 { return &v }
	yes := true
	return []struct {
		name string
		cfg  Config
	}{
		{"identity", Config{}},
		{"slo=15", Config{SLOMS: 15}},
		{"slo=100", Config{SLOMS: 100}},
		{"policy=mincost", Config{Policy: "mincost"}},
		{"policy=maxcontent-resnet", Config{Policy: "maxcontent-resnet"}},
		{"policy=maxcontent-mobilenet", Config{Policy: "maxcontent-mobilenet"}},
		{"policy=force-hoc", Config{Policy: "force-hoc"}},
		{"policy=force-cpop", Config{Policy: "force-cpop"}},
		{"degrade=off", Config{Degrade: DegradeOff}},
		{"degrade=sim", Config{Degrade: DegradeSim}},
		{"slo=5", Config{SLOMS: 5}},
		{"slo=8 degrade=sim", Config{SLOMS: 8, Degrade: DegradeSim}},
		{"slo=6 safety=2 degrade=sim", Config{SLOMS: 6, SafetyFactor: 2, Degrade: DegradeSim}},
		{"slo=15 degrade=sim", Config{SLOMS: 15, Degrade: DegradeSim}},
		{"policy=mincost degrade=sim", Config{Policy: "mincost", Degrade: DegradeSim}},
		{"risk=0", Config{RiskQuantile: f(0)}},
		{"risk=0.95", Config{RiskQuantile: f(0.95)}},
		{"risk=0 safety=1.2", Config{RiskQuantile: f(0), SafetyFactor: 1.2}},
		{"risk=0 safety=1.2 degrade=sim", Config{RiskQuantile: f(0), SafetyFactor: 1.2, Degrade: DegradeSim}},
		{"models", Config{UseModelPredictions: true}},
		{"hysteresis=0.05", Config{Hysteresis: f(0.05)}},
		{"hysteresis=-1", Config{Hysteresis: f(-1)}},
		{"policy=mincost hysteresis=0.05", Config{Policy: "mincost", Hysteresis: f(0.05)}},
		{"policy=maxcontent-resnet hysteresis=0.05", Config{Policy: "maxcontent-resnet", Hysteresis: f(0.05)}},
		{"cost_weight=0.3", Config{CostWeight: f(0.3)}},
		{"cost_weight=-1", Config{CostWeight: f(-1)}},
		{"slo=200 cost_weight=-1", Config{SLOMS: 200, CostWeight: f(-1)}},
		{"no_switch_cost", Config{DisableSwitchCost: &yes}},
		{"safety=1", Config{SafetyFactor: 1}},
	}
}

// TestCounterfactualGolden pins the counterfactual numbers, not just the
// identity path: one faulted, adaptive, risk-admitted corpus replayed
// under every knob set above, rendering each Result summary and every
// redecision with %v. Any change to the decision arithmetic — operation
// order included — shows up as a diff here.
func TestCounterfactualGolden(t *testing.T) {
	set, err := fixture.Small()
	if err != nil {
		t.Fatal(err)
	}
	observer := obs.New()
	srv, err := serve.New(serve.Options{
		Models:       set.Models,
		Observer:     observer,
		ReplayTrace:  true,
		Adapt:        &adapt.Config{},
		RiskQuantile: 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	faults := &fault.Config{Seed: 11, SpikeRate: 0.3, ExtractFailRate: 0.4}
	for i, slo := range []float64{20, 33.3, 50, 100} {
		if _, err := srv.Submit(serve.StreamConfig{
			Video:          vid.Generate("counterfactual", 950+int64(i), vid.GenConfig{Frames: 150}),
			SLO:            slo,
			Seed:           int64(i) + 1,
			BaseContention: 0.5,
			Faults:         faults,
		}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Drain()
	ds := observer.Decisions()
	corpus := FromDecisions("counterfactual", ds)
	var buf bytes.Buffer
	for _, k := range counterfactualKnobs() {
		cfg := k.cfg
		cfg.Models = set.Models
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		res, err := e.Replay(corpus)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		fmt.Fprintf(&buf, "== %s\nreplayed %v\nrecorded %v\ndiverged %v missing_heavy %v\n",
			k.name, res.Replayed, res.Recorded, res.DivergedDecisions, res.MissingHeavy)
		for _, rd := range res.Redecisions {
			fmt.Fprintf(&buf, "%v/%v/%v %v %v feasible=%v fallback=%v acc=%v ms=%v est=%v diverged=%v\n",
				rd.Stream, rd.Gen, rd.Seq, rd.Branch, rd.Features, rd.Feasible,
				rd.Fallback, rd.PredAcc, rd.PredMS, rd.EstMS, rd.Diverged)
		}
	}
	got := buf.Bytes()
	path := filepath.Join("testdata", "counterfactual.golden")
	if *updateCounterfactual {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %d bytes", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update_counterfactual to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("counterfactual replay drifted at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("counterfactual replay drifted: %d lines, golden has %d", len(gl), len(wl))
	}
}
