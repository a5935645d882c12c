package serve

import (
	"bytes"
	"fmt"
	"testing"

	"litereconfig/internal/core"
	"litereconfig/internal/fault"
	"litereconfig/internal/fixture"
	"litereconfig/internal/obs"
	"litereconfig/internal/testutil"
)

// chaosDrain builds a server under the given fault config, submits n
// streams and drains it, returning the report.
func chaosDrain(t *testing.T, s *fixture.Setup, cfg *fault.Config, n int,
	mode core.DegradeMode) *Result {
	t.Helper()
	srv, err := New(Options{Models: s.Models,
		BoardConfig: BoardConfig{GPUSlots: 2, Faults: cfg}, Observer: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, err := srv.Submit(StreamConfig{
			Video: video(700+int64(i), 60), SLO: 50,
			Seed: 40 + int64(i), Degrade: mode,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	return srv.Drain()
}

// allClasses is the kitchen-sink chaos schedule: every fault class at
// once, panics included.
func allClasses(seed int64) *fault.Config {
	return &fault.Config{Seed: seed, SpikeRate: 0.1, ExtractFailRate: 0.15,
		BurstRate: 0.02, StallRate: 0.03, PanicRate: 0.01}
}

func TestChaosDrainCompletesWithoutGoroutineLeak(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := setup(t)
	r := chaosDrain(t, s, allClasses(1), 4, core.DegradeAuto)
	if len(r.Streams) != 4 {
		t.Fatalf("streams = %d, want 4", len(r.Streams))
	}
}

func TestChaosSLOMissBoundedPerFaultClass(t *testing.T) {
	s := setup(t)
	classes := map[string]*fault.Config{
		"spike":        {Seed: 2, SpikeRate: 0.2, SpikeMS: 80},
		"extract_fail": {Seed: 2, ExtractFailRate: 0.5},
		"burst":        {Seed: 2, BurstRate: 0.03},
		"stall":        {Seed: 2, StallRate: 0.05},
		"panic":        {Seed: 2, PanicRate: 0.02},
	}
	for name, cfg := range classes {
		r := chaosDrain(t, s, cfg, 3, core.DegradeAuto)
		if len(r.Streams) != 3 {
			t.Fatalf("%s: streams = %d", name, len(r.Streams))
		}
		for _, row := range r.Streams {
			// Bounded, not zero: injected adversity may cost frames, but
			// graceful degradation must keep the miss rate from collapsing
			// the stream (an undegraded stall/spike storm would blow far
			// past this).
			if row.ViolationRate > 0.5 {
				t.Errorf("%s: stream %s SLO-miss rate unbounded: %.2f",
					name, row.Name, row.ViolationRate)
			}
		}
		t.Logf("%-13s attain=%.0f%% quarantined=%d panics=%d",
			name, r.AttainRate*100, r.Quarantined, r.Panics)
	}
}

func TestChaosFaultCountersExported(t *testing.T) {
	s := setup(t)
	r := chaosDrain(t, s, allClasses(3), 4, core.DegradeAuto)
	snap := r.Metrics()
	fired := 0.0
	for name, v := range snap.Counters {
		if len(name) > 11 && name[:11] == "fault_fired" {
			fired += v
		}
	}
	if fired == 0 {
		t.Fatal("no fault_fired_total counters exported")
	}
	if snap.Counters[`fault_injected_total{class="spike"}`] == 0 &&
		snap.Counters[`fault_injected_total{class="stall"}`] == 0 {
		t.Fatal("boundary fault counters missing")
	}
}

func TestChaosPanicRetryThenQuarantine(t *testing.T) {
	s := setup(t)
	srv, err := New(Options{Models: s.Models, Observer: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	// Stream 0: one scheduled panic — survives via bounded retry.
	// Stream 1: panics scheduled past the retry limit — quarantined.
	// Stream 2: healthy sibling — must complete untouched.
	one, err := srv.Submit(StreamConfig{
		Video: video(20, 40), SLO: 50, Seed: 3,
		FaultPlan: &fault.Plan{Events: []fault.Event{
			{Class: fault.WorkerPanic, Frame: 5},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := srv.Submit(StreamConfig{
		Video: video(21, 40), SLO: 50, Seed: 4,
		FaultPlan: &fault.Plan{Events: []fault.Event{
			{Class: fault.WorkerPanic, Frame: 0},
			{Class: fault.WorkerPanic, Frame: 1},
			{Class: fault.WorkerPanic, Frame: 2},
			{Class: fault.WorkerPanic, Frame: 3},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := srv.Submit(StreamConfig{Video: video(22, 40), SLO: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := srv.Drain()
	if len(r.Streams) != 3 {
		t.Fatalf("streams = %d", len(r.Streams))
	}

	or := one.Result()
	if or.Quarantined || or.Panics != 1 {
		t.Fatalf("single-panic stream: quarantined=%v panics=%d", or.Quarantined, or.Panics)
	}
	if or.Frames != 40 {
		t.Fatalf("single-panic stream did not finish its video: %d frames", or.Frames)
	}
	if or.Health != "degraded" {
		t.Fatalf("panic survivor health = %q, want degraded", or.Health)
	}

	dr := doomed.Result()
	if !dr.Quarantined {
		t.Fatal("over-limit panicker not quarantined")
	}
	if dr.Panics != DefaultRetryLimit+1 {
		t.Fatalf("doomed panics = %d, want %d", dr.Panics, DefaultRetryLimit+1)
	}
	if dr.Health != "quarantined" || dr.QuarantineReason == "" {
		t.Fatalf("quarantine row incomplete: health=%q reason=%q", dr.Health, dr.QuarantineReason)
	}

	hr := healthy.Result()
	if hr.Health != "healthy" || hr.Frames != 40 || hr.Panics != 0 {
		t.Fatalf("healthy sibling disturbed: %+v", hr)
	}

	if r.Quarantined != 1 || r.Panics != 1+DefaultRetryLimit+1 {
		t.Fatalf("report totals: quarantined=%d panics=%d", r.Quarantined, r.Panics)
	}
	snap := r.Metrics()
	if snap.Counters["serve_panics_total"] != float64(r.Panics) {
		t.Fatalf("panic counter = %v", snap.Counters["serve_panics_total"])
	}
	if snap.Counters["serve_quarantined_total"] != 1 {
		t.Fatalf("quarantine counter = %v", snap.Counters["serve_quarantined_total"])
	}
	if snap.Counters["serve_retries_total"] == 0 {
		t.Fatal("retries not counted")
	}
}

func TestChaosTraceByteIdentical(t *testing.T) {
	s := setup(t)
	trace := func() ([]byte, string) {
		r := chaosDrain(t, s, allClasses(7), 4, core.DegradeAuto)
		var buf bytes.Buffer
		if err := r.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), r.Summary()
	}
	a, sa := trace()
	b, sb := trace()
	if len(a) == 0 {
		t.Fatal("empty chaos trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed chaos runs produced different decision traces")
	}
	if sa != sb {
		t.Fatalf("summaries differ:\n%s\nvs\n%s", sa, sb)
	}
	// The trace must actually carry fault and degradation evidence.
	var hasFault, hasDegrade bool
	for _, line := range bytes.Split(a, []byte("\n")) {
		if bytes.Contains(line, []byte(`"fault_events"`)) {
			hasFault = true
		}
		if bytes.Contains(line, []byte(`"degrade"`)) || bytes.Contains(line, []byte(`"breaker"`)) {
			hasDegrade = true
		}
	}
	if !hasFault || !hasDegrade {
		t.Fatalf("chaos trace missing evidence: fault=%v degrade=%v", hasFault, hasDegrade)
	}
}

func TestChaosAccuracyDegradesMonotonically(t *testing.T) {
	s := setup(t)
	// Rising extraction-failure rates must not *improve* accuracy: each
	// failed extraction deprives the scheduler of content features it
	// would otherwise have used. Loose SLO so features are worth having.
	meanMAP := func(rate float64) float64 {
		var cfg *fault.Config
		if rate > 0 {
			cfg = &fault.Config{Seed: 5, ExtractFailRate: rate}
		}
		srv, err := New(Options{Models: s.Models, BoardConfig: BoardConfig{Faults: cfg}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := srv.Submit(StreamConfig{
				Video: video(900+int64(i), 60), SLO: 100, Seed: 60 + int64(i),
			}); err != nil {
				t.Fatal(err)
			}
		}
		r := srv.Drain()
		total := 0.0
		for _, row := range r.Streams {
			total += row.MAP
		}
		return total / float64(len(r.Streams))
	}
	m0, m50, m100 := meanMAP(0), meanMAP(0.5), meanMAP(1)
	t.Logf("mAP vs extract-fail rate: 0%%=%.3f 50%%=%.3f 100%%=%.3f", m0, m50, m100)
	const eps = 0.01
	if m50 > m0+eps || m100 > m50+eps {
		t.Fatalf("accuracy not monotone under rising fault rate: %.3f, %.3f, %.3f",
			m0, m50, m100)
	}
}

func TestChaosDegradeOffAblation(t *testing.T) {
	s := setup(t)
	cfg := &fault.Config{Seed: 8, SpikeRate: 0.25, SpikeMS: 100}
	auto := chaosDrain(t, s, cfg, 3, core.DegradeAuto)
	off := chaosDrain(t, s, cfg, 3, core.DegradeOff)
	vr := func(r *Result) float64 {
		total, frames := 0.0, 0
		for _, row := range r.Streams {
			total += row.ViolationRate * float64(row.Frames)
			frames += row.Frames
		}
		return total / float64(frames)
	}
	va, vo := vr(auto), vr(off)
	t.Logf("spike chaos SLO-miss: degradation on %.3f, off %.3f", va, vo)
	if va > vo+0.02 {
		t.Fatalf("degradation made the miss rate worse: %.3f vs %.3f", va, vo)
	}
}

func TestChaosStallQuarantine(t *testing.T) {
	s := setup(t)
	// The zero-progress detector is the backstop for a stream that wedges
	// without exhausting its panic retries: with a generous RetryLimit, a
	// stream that panics every round (one one-shot event per retry, all
	// anchored at its current frame) makes no frame progress until
	// StallRounds rounds have burned, then is retired with the stall
	// reason rather than the panic one.
	srv, err := New(Options{Models: s.Models,
		BoardConfig: BoardConfig{RetryLimit: 10, StallRounds: 3}, Observer: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	events := make([]fault.Event, 6)
	for i := range events {
		events[i] = fault.Event{Class: fault.WorkerPanic, Frame: 0}
	}
	h, err := srv.Submit(StreamConfig{
		Video: video(30, 40), SLO: 50, Seed: 6,
		FaultPlan: &fault.Plan{Events: events},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	res := h.Result()
	if !res.Quarantined {
		t.Fatalf("wedged stream not quarantined: %+v", res)
	}
	if res.QuarantineReason != "no progress for 3 rounds" {
		t.Fatalf("quarantine reason = %q", res.QuarantineReason)
	}
	if res.Panics != 3 {
		t.Fatalf("panics = %d, want 3 (one per burned round)", res.Panics)
	}
	if res.Frames != 0 {
		t.Fatalf("wedged stream reported %d frames", res.Frames)
	}
}

// TestChaosSummaryRendering keeps the human-facing report honest: a
// quarantined stream must be visibly marked.
func TestChaosSummaryRendering(t *testing.T) {
	r := StreamResult{Name: "s0", Class: "slo50ms", SLO: 50, MeetsSLO: true,
		Quarantined: true, QuarantineReason: "panic retries exhausted", Panics: 3}
	sum := r.Summary()
	for _, want := range []string{"QUARANTINED", "panics=3", "panic retries exhausted"} {
		if !bytes.Contains([]byte(sum), []byte(want)) {
			t.Fatalf("summary %q missing %q", sum, want)
		}
	}
	_ = fmt.Sprint(HealthHealthy, HealthDegraded, HealthQuarantined, Health(9))
}
