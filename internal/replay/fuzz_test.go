package replay

import (
	"bytes"
	"fmt"
	"testing"

	"litereconfig/internal/adapt"
	"litereconfig/internal/core"
	"litereconfig/internal/fault"
	"litereconfig/internal/fixture"
	"litereconfig/internal/obs"
	"litereconfig/internal/sched"
	"litereconfig/internal/serve"
	"litereconfig/internal/vid"
)

// tinyModels trains a compact bundle on the small branch space in well
// under a second, so every fuzz worker starts fuzzing almost at once.
func tinyModels(tb testing.TB) *sched.Models {
	tb.Helper()
	train := make([]*vid.Video, 10)
	for i := range train {
		train[i] = vid.Generate(fmt.Sprintf("fuzz_%03d", i), 100000+int64(i), vid.GenConfig{Frames: 120})
	}
	cfg := sched.Config{
		Branches:   fixture.SmallBranches(),
		SnippetLen: 60, SnippetStride: 30,
		Seed: 7, Epochs: 120,
		ProjDim: 24, Hidden: []int{48},
	}
	m, err := sched.Train(cfg, sched.Collect(cfg, train))
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// FuzzReplayDecisions feeds arbitrary bytes through the trace decoder
// and the replay engine, under the identity configuration and under
// UseModelPredictions: a trace file is outside input, so every byte
// string must yield a result or an error, never a panic. The seeds are
// the lines of a short faulted, adaptive, risk-admitted recording, each
// alone and all together.
func FuzzReplayDecisions(f *testing.F) {
	models := tinyModels(f)
	observer := obs.New()
	srv, err := serve.New(serve.Options{
		Models: models, Observer: observer, ReplayTrace: true,
		Adapt: &adapt.Config{}, RiskQuantile: 0.95,
	})
	if err != nil {
		f.Fatal(err)
	}
	faults := &fault.Config{Seed: 11, SpikeRate: 0.1, ExtractFailRate: 0.2}
	for i, p := range []core.Policy{core.PolicyFull, core.PolicyMaxContentResNet} {
		if _, err := srv.Submit(serve.StreamConfig{
			Video:  vid.Generate("fuzz", 900+int64(i), vid.GenConfig{Frames: 60}),
			SLO:    []float64{33.3, 100}[i],
			Seed:   int64(i) + 1,
			Policy: p,
			Faults: faults,
		}); err != nil {
			f.Fatal(err)
		}
	}
	srv.Drain()
	var all bytes.Buffer
	if err := observer.WriteTrace(&all); err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(all.Bytes(), []byte("\n")) {
		if len(line) > 0 {
			f.Add(line)
		}
	}
	f.Add(all.Bytes())

	var engines []*Engine
	for _, cfg := range []Config{
		{Models: models},
		{Models: models, UseModelPredictions: true},
	} {
		e, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		engines = append(engines, e)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := obs.ReadDecisions(bytes.NewReader(data))
		if err != nil {
			return
		}
		corpus := FromDecisions("fuzz", ds)
		for _, e := range engines {
			if res, err := e.Replay(corpus); err == nil && len(res.Redecisions) != len(ds) {
				t.Fatalf("replayed %d of %d decisions without an error", len(res.Redecisions), len(ds))
			}
		}
	})
}
