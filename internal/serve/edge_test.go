package serve

import (
	"strings"
	"testing"
)

func TestSubmitAfterDrainRejected(t *testing.T) {
	s := setup(t)
	srv, err := New(Options{Models: s.Models})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(StreamConfig{Video: video(1, 20), SLO: 50}); err != nil {
		t.Fatal(err)
	}
	r := srv.Drain()
	if len(r.Streams) != 1 {
		t.Fatalf("streams = %d", len(r.Streams))
	}
	clones := srv.Clones()
	if _, err := srv.Submit(StreamConfig{Video: video(2, 20), SLO: 50}); err == nil {
		t.Fatal("post-drain submit must error")
	} else if !strings.Contains(err.Error(), "draining") {
		t.Fatalf("unexpected error: %v", err)
	}
	if srv.Clones() != clones {
		t.Fatal("post-drain submit paid for a models clone")
	}
	// The report is unchanged by the refused submission.
	if r2 := srv.Drain(); len(r2.Streams) != 1 {
		t.Fatalf("report changed after refused submit: %d streams", len(r2.Streams))
	}
}

func TestDrainWithZeroStreams(t *testing.T) {
	s := setup(t)
	srv, err := New(Options{Models: s.Models})
	if err != nil {
		t.Fatal(err)
	}
	r := srv.Drain()
	if r == nil {
		t.Fatal("nil report")
	}
	if len(r.Streams) != 0 || r.Rounds != 0 || r.AttainRate != 0 {
		t.Fatalf("empty drain report wrong: %+v", r)
	}
	if sum := r.Summary(); sum == "" {
		t.Fatal("empty drain must still render a summary")
	}
}

func TestContentionTraceExhaustedMidRun(t *testing.T) {
	s := setup(t)
	// A 5-frame trace against a 60-frame video: once exhausted, the
	// floor must hold the trace's last level, not collapse to zero.
	const held = 0.6
	run := func(trace []float64, floor float64) *StreamResult {
		srv, err := New(Options{Models: s.Models, BoardConfig: BoardConfig{Coupling: -1}})
		if err != nil {
			t.Fatal(err)
		}
		h, err := srv.Submit(StreamConfig{
			Video: video(9, 60), SLO: 50, Seed: 7,
			ContentionTrace: trace, BaseContention: floor,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Drain()
		return h.Result()
	}
	traced := run([]float64{0.1, 0.2, 0.3, 0.4, held}, 0)
	fixed := run(nil, held)
	if traced.MeanContention <= 0 {
		t.Fatal("trace floor never applied")
	}
	// Almost every frame runs past the 5-frame trace, so the stream's
	// mean applied contention approaches the held level (sampled at
	// round barriers; allow slack for the early low-level frames).
	if diff := fixed.MeanContention - traced.MeanContention; diff < 0 || diff > 0.2 {
		t.Fatalf("exhausted trace did not hold last level: traced=%.2f fixed=%.2f",
			traced.MeanContention, fixed.MeanContention)
	}
}
