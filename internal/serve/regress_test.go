package serve

// Regression tests for the concurrency fixes (concurrent Drain, default
// seed assignment, the Coupling zero-sentinel, clone-before-check) and
// for the observability layer's determinism and passivity guarantees.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"litereconfig/internal/obs"
)

func TestConcurrentDrainReturnsOneReport(t *testing.T) {
	s := setup(t)
	srv, err := New(Options{Models: s.Models})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.Submit(StreamConfig{Video: video(700+int64(i), 30), SLO: 50}); err != nil {
			t.Fatal(err)
		}
	}
	const callers = 8
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = srv.Drain()
		}()
	}
	wg.Wait()
	if results[0] == nil {
		t.Fatal("Drain returned nil")
	}
	for i, r := range results {
		if r != results[0] {
			t.Fatalf("caller %d got a different report: %p vs %p", i, r, results[0])
		}
	}
	if len(results[0].Streams) != 3 {
		t.Fatalf("streams = %d, want 3", len(results[0].Streams))
	}
}

func TestConcurrentSubmitAndDrain(t *testing.T) {
	s := setup(t)
	srv, err := New(Options{Models: s.Models})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(StreamConfig{Video: video(710, 20), SLO: 50}); err != nil {
		t.Fatal(err)
	}
	// Race submissions against the drain: each submission must either be
	// served or be refused with a draining error — never lost, never
	// admitted half-built.
	var wg sync.WaitGroup
	accepted := make([]bool, 6)
	for i := range accepted {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := srv.Submit(StreamConfig{Video: video(720+int64(i), 20), SLO: 50})
			accepted[i] = err == nil
		}()
	}
	r := srv.Drain()
	wg.Wait()
	served := 0
	for _, ok := range accepted {
		if ok {
			served++
		}
	}
	if got := len(r.Streams); got != 1+served {
		t.Fatalf("served %d streams, want 1 + %d accepted", got, served)
	}
	if srv.Clones() != 1+served {
		t.Fatalf("clones = %d, want %d (one per served stream)", srv.Clones(), 1+served)
	}
}

func TestDefaultSeedsAreDistinctPerStream(t *testing.T) {
	s := setup(t)
	srv, err := New(Options{Models: s.Models})
	if err != nil {
		t.Fatal(err)
	}
	// Same video, no explicit seed: each stream must get its own default
	// realization (seed 1 + id), not all collapse onto seed 1.
	v := video(730, 40)
	var handles []*Stream
	for i := 0; i < 3; i++ {
		h, err := srv.Submit(StreamConfig{Video: v, SLO: 33.3})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		if got, want := h.st.cfg.Seed, 1+int64(h.st.id); got != want {
			t.Fatalf("stream %d default seed = %d, want %d", i, got, want)
		}
	}
	r := srv.Drain()
	distinct := false
	for i := 1; i < len(r.Streams); i++ {
		if r.Streams[i].MeanMS != r.Streams[0].MeanMS {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("identical videos with default seeds produced identical realizations; seeds collapsed")
	}
}

func TestNegativeCouplingMeansUncoupled(t *testing.T) {
	s := setup(t)
	srv, err := New(Options{Models: s.Models, BoardConfig: BoardConfig{Coupling: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Options().Coupling; got != 0 {
		t.Fatalf("Coupling -1 should mean an explicit zero, got %v", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.Submit(StreamConfig{Video: video(740+int64(i), 30), SLO: 50}); err != nil {
			t.Fatal(err)
		}
	}
	r := srv.Drain()
	if r.MeanContention != 0 {
		t.Fatalf("uncoupled board generated contention %v, want 0", r.MeanContention)
	}
	// And the zero value still selects the documented default.
	srv2, err := New(Options{Models: s.Models})
	if err != nil {
		t.Fatal(err)
	}
	if got := srv2.Options().Coupling; got != DefaultCoupling {
		t.Fatalf("zero Coupling should default to %v, got %v", DefaultCoupling, got)
	}
	srv2.Drain()
}

func TestRejectedSubmissionDoesNotClone(t *testing.T) {
	s := setup(t)
	srv, err := New(Options{Models: s.Models, BoardConfig: BoardConfig{QueueLimit: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(StreamConfig{Video: video(750, 20), SLO: 50}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(StreamConfig{Video: video(751, 20), SLO: 50}); err == nil {
		t.Fatal("second submission must be rejected by backpressure")
	}
	if got := srv.Clones(); got != 1 {
		t.Fatalf("clones = %d, want 1: a rejected submission must not pay the clone", got)
	}
	srv.Drain()
	if _, err := srv.Submit(StreamConfig{Video: video(752, 20), SLO: 50}); err == nil {
		t.Fatal("submit after drain must error")
	}
	if got := srv.Clones(); got != 1 {
		t.Fatalf("clones = %d after post-drain submit, want 1", got)
	}
}

// observedRun drains n streams with an observer attached and returns the
// report plus the serialized decision trace.
func observedRun(t *testing.T, opts Options, n int) (*Result, []byte) {
	t.Helper()
	opts.Observer = obs.New()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, err := srv.Submit(StreamConfig{
			Video: video(800+int64(i), 40),
			SLO:   33.3,
			Seed:  50 + int64(i),
			Name:  fmt.Sprintf("s%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	r := srv.Drain()
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return r, buf.Bytes()
}

func TestTraceByteIdenticalAcrossRuns(t *testing.T) {
	s := setup(t)
	r1, trace1 := observedRun(t, Options{Models: s.Models, BoardConfig: BoardConfig{GPUSlots: 2}}, 4)
	_, trace2 := observedRun(t, Options{Models: s.Models, BoardConfig: BoardConfig{GPUSlots: 2}}, 4)
	if len(trace1) == 0 {
		t.Fatal("observed run wrote an empty trace")
	}
	if !bytes.Equal(trace1, trace2) {
		t.Fatal("identical runs wrote different traces")
	}

	// One decision per GoF boundary, with both the prediction and the
	// realized outcome filled in.
	decisions := r1.Decisions()
	framesByStream := map[int]int{}
	for i, d := range decisions {
		if d.Branch == "" || d.GoFFrames <= 0 {
			t.Fatalf("decision %d incomplete: %+v", i, d)
		}
		if d.PredLatencyMS <= 0 || d.RealizedMS <= 0 {
			t.Fatalf("decision %d missing predicted/realized latency: %+v", i, d)
		}
		// Features may legitimately be empty (the cost-benefit pass can
		// decline every heavy feature), but the policy is always known.
		if d.Policy == "" {
			t.Fatalf("decision %d missing policy: %+v", i, d)
		}
		if d.FeasibleBranches <= 0 && !d.Fallback {
			t.Fatalf("decision %d has no feasible branches yet no fallback: %+v", i, d)
		}
		framesByStream[d.Stream] += d.GoFFrames
	}
	for _, sr := range r1.Streams {
		if got := framesByStream[sr.ID]; got != sr.Frames {
			t.Fatalf("stream %d decisions cover %d frames, want %d (one decision per GoF)",
				sr.ID, got, sr.Frames)
		}
	}

	// The metrics registry saw the same structure.
	snap := r1.Metrics()
	text := snap.Text()
	for _, want := range []string{
		"serve_admissions_total", "serve_rounds_total",
		"harness_gofs_total", "sched_decisions_total",
	} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Fatalf("metrics dump missing %q:\n%s", want, text)
		}
	}
}

func TestObserverDoesNotChangeDecisions(t *testing.T) {
	s := setup(t)
	observed, _ := observedRun(t, Options{Models: s.Models, BoardConfig: BoardConfig{GPUSlots: 2}}, 4)

	srv, err := New(Options{Models: s.Models, BoardConfig: BoardConfig{GPUSlots: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_, err := srv.Submit(StreamConfig{
			Video: video(800+int64(i), 40),
			SLO:   33.3,
			Seed:  50 + int64(i),
			Name:  fmt.Sprintf("s%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	plain := srv.Drain()

	if len(observed.Streams) != len(plain.Streams) {
		t.Fatalf("stream counts diverged: %d vs %d", len(observed.Streams), len(plain.Streams))
	}
	for i := range plain.Streams {
		o, p := observed.Streams[i], plain.Streams[i]
		if o.MAP != p.MAP || o.P95MS != p.P95MS || o.MeanMS != p.MeanMS ||
			o.Switches != p.Switches || o.BranchCoverage != p.BranchCoverage ||
			o.MeanContention != p.MeanContention || o.Rounds != p.Rounds {
			t.Fatalf("observer changed stream %d outcome:\nobserved: %+v\nplain:    %+v", i, o, p)
		}
	}

	// Unobserved results answer the observability accessors harmlessly.
	if got := plain.Decisions(); got != nil {
		t.Fatalf("unobserved run has decisions: %v", got)
	}
	var buf bytes.Buffer
	if err := plain.WriteTrace(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("unobserved trace: err=%v len=%d", err, buf.Len())
	}
	if text := plain.Metrics().Text(); text != "" {
		t.Fatalf("unobserved metrics non-empty:\n%s", text)
	}
}
