package serve

import (
	"bytes"
	"sync"
	"testing"

	"litereconfig/internal/obs"
	"litereconfig/internal/testutil"
)

// stepUntil steps the server until cond holds or the board drains,
// failing the test if the condition never becomes true.
func stepUntil(t *testing.T, srv *Server, what string, cond func() bool) {
	t.Helper()
	for !cond() {
		if !srv.StepRound() {
			t.Fatalf("board drained before %s", what)
		}
	}
}

func TestKillDiscardsLiveKeepsFinished(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := setup(t)
	srv, err := New(Options{Models: s.Models})
	if err != nil {
		t.Fatal(err)
	}
	// A short stream that finishes early and a long one that is still
	// live when the board fail-stops.
	if _, err := srv.Submit(StreamConfig{Name: "short", Video: video(41, 12), SLO: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(StreamConfig{Name: "long", Video: video(42, 96), SLO: 100}); err != nil {
		t.Fatal(err)
	}
	stepUntil(t, srv, "the short stream finished", func() bool {
		_, _, finished := srv.Counts()
		return finished == 1
	})
	srv.Kill()

	// Only the already-finished stream survives the crash; the live one
	// is gone without a row — the fleet restores it from a checkpoint.
	rep := srv.Drain() // Drain after Kill returns the stored report
	if len(rep.Streams) != 1 || rep.Streams[0].Name != "short" {
		t.Fatalf("post-kill report rows = %+v, want only the finished stream", rep.Streams)
	}
	if rep.Streams[0].Frames != 12 {
		t.Fatalf("finished stream frames = %d, want 12", rep.Streams[0].Frames)
	}
	if srv.StepRound() {
		t.Fatal("killed board still stepping rounds")
	}
}

func TestCheckpointRestoreCompletesStream(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := setup(t)
	const total = 60
	a, err := New(Options{Models: s.Models})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Submit(StreamConfig{Name: "ckpt", Video: video(50, total), SLO: 100, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	// Run the stream past its first GoF so the checkpoint carries real
	// progress, then cut the checkpoint and crash the board.
	var ck Checkpoint
	stepUntil(t, a, "the stream completed a GoF", func() bool {
		cks := a.Checkpoints()
		if len(cks) == 1 && cks[0].GoFs > 0 {
			ck = cks[0]
			return true
		}
		return false
	})
	if ck.Frames <= 0 || ck.Frames >= total || ck.SimMS <= 0 {
		t.Fatalf("checkpoint did not capture mid-run progress: %+v", ck)
	}
	a.Kill()

	b, err := New(Options{Models: s.Models})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Restore(ck, nil); err != nil {
		t.Fatal(err)
	}
	rep := b.Drain()
	if len(rep.Streams) != 1 {
		t.Fatalf("rows = %d, want 1", len(rep.Streams))
	}
	row := rep.Streams[0]
	if !row.Recovered || row.Recoveries != 1 {
		t.Fatalf("restored stream not marked recovered: %+v", row)
	}
	if row.ResumeFrame != ck.Frames {
		t.Fatalf("ResumeFrame = %d, want checkpoint frame %d", row.ResumeFrame, ck.Frames)
	}
	// The final incarnation's metrics cover exactly the replayed-and-new
	// frames [ResumeFrame, end): no frame is double-delivered or lost.
	if row.Frames != total-ck.Frames {
		t.Fatalf("restored incarnation processed %d frames, want %d", row.Frames, total-ck.Frames)
	}
	if row.Quarantined {
		t.Fatalf("restored stream quarantined: %s", row.QuarantineReason)
	}
	// Conservation: the single row lands in the Recovered bucket.
	if len(rep.Classes) != 1 || rep.Classes[0].Recovered != 1 || rep.Classes[0].Completed != 0 {
		t.Fatalf("class buckets wrong: %+v", rep.Classes)
	}
}

// TestRestoreReplayDeterminism restores one checkpoint onto two
// identical fresh boards: the replayed incarnations must make the same
// decisions — the recovery path is inside the fixed-seed determinism
// envelope, so fleet traces stay byte-identical across runs.
func TestRestoreReplayDeterminism(t *testing.T) {
	s := setup(t)
	src, err := New(Options{Models: s.Models})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Submit(StreamConfig{Name: "det", Video: video(51, 48), SLO: 50, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	var ck Checkpoint
	stepUntil(t, src, "the stream completed a GoF", func() bool {
		cks := src.Checkpoints()
		if len(cks) == 1 && cks[0].GoFs > 0 {
			ck = cks[0]
			return true
		}
		return false
	})
	src.Kill()

	var traces [2]bytes.Buffer
	for i := 0; i < 2; i++ {
		dst, err := New(Options{Models: s.Models, Observer: obs.New()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.Restore(ck, nil); err != nil {
			t.Fatal(err)
		}
		rep := dst.Drain()
		if err := rep.WriteTrace(&traces[i]); err != nil {
			t.Fatal(err)
		}
	}
	if traces[0].Len() == 0 {
		t.Fatal("restored run produced no decision trace")
	}
	if !bytes.Equal(traces[0].Bytes(), traces[1].Bytes()) {
		t.Fatal("replay from the same checkpoint diverged between identical boards")
	}
}

// TestDetachRacesPreemptionAtBarrier pins the migration-vs-preemption
// race on one stream: a best-effort victim is active with a gold
// arrival pending whose admission is guaranteed to evict it
// (PreemptLimit -1 retires on first eviction), and Detach — the fleet's
// evacuation path — fires concurrently with the barrier that runs the
// preemption pass. The server mutex serializes the two; whoever wins
// consumes the stream, the loser observes it gone. Either way the
// victim ends in exactly one report row, in exactly one conservation
// bucket, and the WFQ tag table holds no stale class entries.
func TestDetachRacesPreemptionAtBarrier(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := setup(t)
	detachWon, preemptWon := 0, 0
	for i := 0; i < 8 && (detachWon == 0 || preemptWon == 0); i++ {
		srv, err := New(Options{
			Models: s.Models, Admission: AdmissionWFQ, Preempt: true,
			PreemptLimit: -1, BoardConfig: BoardConfig{GPUSlots: 1, MaxOccupancy: 1},
			ClassWeights: map[string]int{"gold": 4, "besteffort": 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		victim, err := srv.Submit(StreamConfig{
			Name: "victim", Video: video(60+int64(i), 600), SLO: 100, Class: "besteffort",
		})
		if err != nil {
			t.Fatal(err)
		}
		// Let the victim run alone until it has a measured occupancy, so
		// the gold arrival's admission check is guaranteed to demand an
		// eviction at the next barrier.
		for r := 0; r < 3; r++ {
			if !srv.StepRound() {
				t.Fatal("victim drained during warm-up")
			}
		}
		if _, err := srv.Submit(StreamConfig{
			Name: "gold", Video: video(70+int64(i), 24), SLO: 100, Class: "gold",
			EstOccupancy: 1,
		}); err != nil {
			t.Fatal(err)
		}

		// The race: one goroutine runs the barrier (preemption pass first),
		// the other detaches the same stream for migration.
		var (
			wg   sync.WaitGroup
			d    *Detached
			derr error
		)
		wg.Add(2)
		go func() { defer wg.Done(); d, derr = srv.Detach(victim) }()
		go func() { defer wg.Done(); srv.StepRound() }()
		wg.Wait()

		if derr == nil {
			detachWon++
			d.Retire("evacuated in race test")
		} else {
			preemptWon++
		}
		rep := srv.Drain()

		rows := 0
		for _, row := range rep.Streams {
			if row.Name != "victim" {
				continue
			}
			rows++
			// Winner pinning: a detached victim is fleet-retired, a
			// preempted one is preempt-retired — never both, never neither.
			if derr == nil && (!row.FleetRetired || row.PreemptRetired) {
				t.Fatalf("detach won but row says %+v", row)
			}
			if derr != nil && (row.FleetRetired || !row.PreemptRetired) {
				t.Fatalf("preemption won but row says %+v", row)
			}
		}
		if rows != 1 {
			t.Fatalf("victim has %d report rows, want exactly 1", rows)
		}
		// Conservation: one victim row in Retired (detach) xor one
		// completed-bucket row (preempt-retire counts as Completed with
		// PreemptRetired set), plus the gold completion.
		for _, cs := range rep.Classes {
			if got := cs.Completed + cs.Rejected + cs.Retired + cs.Recovered; got != cs.Streams+cs.Rejected {
				t.Fatalf("class %s buckets do not cover its rows: %+v", cs.Class, cs)
			}
		}
		// No stale WFQ tags survive the drain: every class left the board.
		srv.mu.Lock()
		tags := len(srv.wfqLastF)
		srv.mu.Unlock()
		if tags != 0 {
			t.Fatalf("wfqLastF holds %d stale class tags after drain", tags)
		}
	}
	if detachWon == 0 && preemptWon == 0 {
		t.Fatal("race never resolved either way")
	}
	t.Logf("detach won %d, preemption won %d", detachWon, preemptWon)
}
