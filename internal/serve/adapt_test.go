package serve

import (
	"bytes"
	"testing"

	"litereconfig/internal/adapt"
	"litereconfig/internal/obs"
)

// drainAdapted serves three fixed-seed streams with online adaptation
// on and returns the drain report plus the run's observer.
func drainAdapted(t *testing.T, cfg *adapt.Config) (*Result, *obs.Observer, *Server) {
	t.Helper()
	s := setup(t)
	o := obs.New()
	srv, err := New(Options{Models: s.Models, BoardConfig: BoardConfig{GPUSlots: 2}, Adapt: cfg, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.Submit(StreamConfig{
			Video: video(500+int64(i), 60),
			SLO:   50,
			Seed:  40 + int64(i),
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	return srv.Drain(), o, srv
}

// TestServeAdaptationWiring checks the per-stream adapter plumbing: the
// server creates a board registry, every stream runs its own adaptation
// loop on its cloned models, and the report carries the adapt columns.
// Warm-up is shortened so even a stream that settles on a large-GoF
// branch (few decisions across its 60 frames) refits at least once.
func TestServeAdaptationWiring(t *testing.T) {
	res, _, srv := drainAdapted(t, &adapt.Config{WarmupSamples: 1})
	if srv.AdaptRegistry() == nil {
		t.Fatal("adapted server has no registry")
	}
	refits := 0
	for _, row := range res.Streams {
		if row.ModelVersion == "" {
			t.Errorf("stream %s has no model version", row.Name)
		}
		if row.Refits == 0 {
			t.Errorf("stream %s never refit its challenger", row.Name)
		}
		refits += row.Refits
	}
	if res.Refits != refits {
		t.Errorf("aggregate refits = %d, rows sum to %d", res.Refits, refits)
	}
	if res.Promotions != srv.AdaptRegistry().Promotions() {
		t.Errorf("aggregate promotions = %d, registry says %d",
			res.Promotions, srv.AdaptRegistry().Promotions())
	}
}

// TestServeUnadaptedReportUnchanged asserts the off state: no registry,
// no adapt columns, no adapt_* fields in the decision trace.
func TestServeUnadaptedReportUnchanged(t *testing.T) {
	s := setup(t)
	o := obs.New()
	srv, err := New(Options{Models: s.Models, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(StreamConfig{Video: video(501, 40), SLO: 50, Seed: 41}); err != nil {
		t.Fatal(err)
	}
	res := srv.Drain()
	if srv.AdaptRegistry() != nil {
		t.Fatal("unadapted server grew a registry")
	}
	if res.Streams[0].ModelVersion != "" || res.Refits != 0 {
		t.Fatalf("unadapted report carries adapt stats: %+v", res.Streams[0])
	}
	var buf bytes.Buffer
	if err := res.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("adapt_")) {
		t.Error("unadapted trace contains adapt_* fields")
	}
}

// TestServeAdaptTraceDeterministic runs the same adapted board twice:
// promotions only land at GoF barriers and coupling only changes at
// round barriers, so fixed seeds must give byte-identical traces.
func TestServeAdaptTraceDeterministic(t *testing.T) {
	var traces [2]bytes.Buffer
	for i := range traces {
		res, _, _ := drainAdapted(t, &adapt.Config{})
		if err := res.WriteTrace(&traces[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
		t.Fatal("adapted drains with identical seeds wrote different traces")
	}
	if !bytes.Contains(traces[0].Bytes(), []byte(`"adapt_version"`)) {
		t.Error("adapted trace carries no adapt_version fields")
	}
}
