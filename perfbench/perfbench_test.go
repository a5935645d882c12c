package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"

	"litereconfig/internal/fixture"
	"litereconfig/internal/fleet"
	"litereconfig/internal/obs"
	"litereconfig/internal/sched"
	"litereconfig/internal/serve"
	"litereconfig/internal/workload"
)

var (
	bundleOnce sync.Once
	models     *sched.Models
	bundlePath string
	bundleErr  error
)

// testModels trains the fixture.Small models once per test binary and
// saves them where the workloads can load them.
func testModels(t *testing.T) (*sched.Models, string) {
	t.Helper()
	bundleOnce.Do(func() {
		set, err := fixture.Small()
		if err != nil {
			bundleErr = err
			return
		}
		dir, err := os.MkdirTemp("", "perfbench-test-")
		if err != nil {
			bundleErr = err
			return
		}
		models = set.Models
		bundlePath = filepath.Join(dir, "models.gob")
		bundleErr = set.Models.SaveFile(bundlePath)
	})
	if bundleErr != nil {
		t.Fatal(bundleErr)
	}
	return models, bundlePath
}

func TestMain(m *testing.M) {
	code := m.Run()
	if bundlePath != "" {
		os.RemoveAll(filepath.Dir(bundlePath))
	}
	os.Exit(code)
}

// benchmarkFile mirrors the parts of BENCHMARK.json the tables define.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}

	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) || len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d/%d/%d end-to-end/per-layer/workloads, the tables %d/%d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(bf.Workloads), len(endToEnd), len(perLayer), len(workloads))
	}
	for i, d := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, got, d)
		}
	}
	for i, d := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, got, d)
		}
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workloads[%d] = %+v, table has %s: %s", i, got, w.name, w.why)
		}
	}
}

// TestSourceTakesMatchBarriers checks that the fleet polls the
// benchmark's Source exactly once per barrier, which is what makes the
// intervals between polls the fleet's barrier times.
func TestSourceTakesMatchBarriers(t *testing.T) {
	models, _ := testModels(t)
	wcfg, err := workload.Scenario("flashcrowd", "small", 7)
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	src := newArrivalSource(schedule, 7)
	src.tr = newTracer()
	fl, err := fleet.New(fleet.Options{Models: models, Boards: boardConfigs(), Source: src,
		Admission: serve.AdmissionWFQ, ClassWeights: workload.Weights(wcfg.Tiers), Preempt: true})
	if err != nil {
		t.Fatal(err)
	}
	rep := fl.Run()
	src.closeBarrier()
	if err := sourceGate(src, rep); err != nil {
		t.Fatal(err)
	}
	spans := len(src.tr.durations("fleet.arrival_barrier", 1)) + len(src.tr.durations("fleet.idle_barrier", 1))
	if spans != rep.Barriers {
		t.Fatalf("%d barrier spans over %d barriers", spans, rep.Barriers)
	}
	// The gate must catch a fleet that lost count of an arrival or left
	// the schedule undrained.
	lost := *rep
	lost.Arrivals--
	if sourceGate(src, &lost) == nil {
		t.Error("source gate passed a report missing an arrival")
	}
	undrained := *src
	undrained.next--
	if sourceGate(&undrained, rep) == nil {
		t.Error("source gate passed a schedule with an arrival never taken")
	}
}

// TestShadowWrapperTraceIdentical checks that timing Decide through the
// benchmark's wrapper changes no decision: the wrapped shadow loop's
// decision trace is byte-identical to the one with the bare scheduler.
func TestShadowWrapperTraceIdentical(t *testing.T) {
	models, _ := testModels(t)
	wcfg, err := workload.Scenario("heavytail", "small", 7)
	if err != nil {
		t.Fatal(err)
	}
	schedule, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	streams := sample(newArrivalSource(schedule, 7).cfgs, 4)
	for _, c := range []struct {
		name string
		set  shadowSettings
	}{
		{"plain", shadowSettings{}},
		{"risk-adapt-replay", shadowSettings{RiskQuantile: 0.95, Adapt: true, ReplayTrace: true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			trace := func(r shadowRun) []byte {
				r.observer = obs.New()
				if err := r.run(); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := r.observer.WriteTrace(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			base := shadowRun{models: models, streams: streams, set: c.set}
			bare := trace(base)
			timed := base
			timed.wrap, timed.tr = true, newTracer()
			wrapped := trace(timed)
			if len(bare) == 0 {
				t.Fatal("empty decision trace")
			}
			if !bytes.Equal(bare, wrapped) {
				t.Fatalf("wrapped trace (%d bytes) differs from the bare one (%d bytes)", len(wrapped), len(bare))
			}
			if n := len(timed.tr.durations("core.decide", 1)); n == 0 {
				t.Fatal("wrapper recorded no core.decide spans")
			}
			counted := base
			counted.wrap, counted.mem = true, &allocMeter{}
			if !bytes.Equal(bare, trace(counted)) {
				t.Fatal("allocation-counting pass changed the decision trace")
			}
		})
	}
}

// TestWorkloadsPassGates runs one iteration of every workload on the
// default seed and on a held-out one; each must pass the correctness
// gates and repeat its simulated outcome exactly.
func TestWorkloadsPassGates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	_, bundle := testModels(t)
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The workloads write scratch traces under buildDir, relative to
	// the working directory.
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{7, 1009} {
		for _, w := range workloads {
			first, err := w.run(bundle, w.input(seed, 0), nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if first.gate != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, first.gate)
			}
			again, err := w.run(bundle, w.input(seed, 0), newTracer())
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if !sameSim(first, again) {
				t.Errorf("%s seed %d: traced rerun changed the simulated outcome: %+v vs %+v",
					w.name, seed, poolSim([]simParts{first.sim}), poolSim([]simParts{again.sim}))
			}
		}
	}
}
