package serve

import (
	"fmt"
	"math"
	"sort"

	"litereconfig/internal/obs"
	"litereconfig/internal/simlat"
)

// This file is the tier-aware admission controller: a weighted-fair
// queue discipline over SLO classes (replacing the single FIFO under
// Options.Admission == AdmissionWFQ) and barrier-time preemption of
// lower-weight streams when a higher tier's SLO is infeasible under the
// board's current occupancy (Options.Preempt). Everything here runs at
// the round barrier under the server mutex, so admission and preemption
// decisions are single-threaded and deterministic for fixed seeds.

// AdmissionPolicy selects the order in which queued streams are
// admitted onto the board.
type AdmissionPolicy int

const (
	// AdmissionFIFO admits strictly in submission order with no
	// skipping — the closed-loop default, and the ablation baseline for
	// the open-world workload experiments.
	AdmissionFIFO AdmissionPolicy = iota
	// AdmissionWFQ admits by weighted-fair order across SLO classes:
	// each class advances a virtual-finish-tag chain at rate 1/weight
	// per enqueued stream, and the queue is served in increasing tag
	// order, so a weight-4 gold class gets four admissions for every
	// one a weight-1 best-effort class gets when both are backlogged.
	AdmissionWFQ
)

// String returns the canonical policy name.
func (p AdmissionPolicy) String() string {
	if p == AdmissionWFQ {
		return "wfq"
	}
	return "fifo"
}

// StreamEvent is one admission-control action the board took at a round
// barrier. Boards accumulate events under the server mutex; the fleet
// dispatcher (or any open-loop runner) drains them between rounds with
// DrainStreamEvents and records them on the shared event trace in board
// order, keeping fixed-seed traces byte-identical even though boards
// step in parallel.
type StreamEvent struct {
	// Round is the board round the event fired at.
	Round int
	// Kind is "preempt" (stream evicted to the queue) — retired
	// preemptions additionally set Retired.
	Kind string
	// Stream identity, as in the report row.
	Stream int
	Name   string
	Class  string
	Tenant string
	// Reason says which tier's infeasibility (or queue pressure)
	// triggered the eviction.
	Reason string
	// Retired marks a preemption that exhausted the stream's preemption
	// budget: the stream was retired with partial results instead of
	// re-queued.
	Retired bool
}

// DrainStreamEvents returns the admission events accumulated since the
// last drain and clears the buffer. Safe to call between rounds; the
// fleet dispatcher calls it at every barrier.
func (s *Server) DrainStreamEvents() []StreamEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := s.events
	s.events = nil
	return ev
}

// weightOf resolves the WFQ weight of an SLO class (default 1).
func (s *Server) weightOf(class string) int {
	if w := s.opts.ClassWeights[class]; w > 0 {
		return w
	}
	return 1
}

// enqueueLocked places a built (or preempted, or migrated-in) stream on
// the admission queue. Under FIFO the queue is submission-ordered; under
// WFQ the stream is tagged with its class's next virtual finish time and
// inserted in (tag, id) order. Caller holds the server mutex.
func (s *Server) enqueueLocked(st *stream) {
	if s.opts.Admission != AdmissionWFQ {
		s.queue = append(s.queue, st)
		return
	}
	class := st.className()
	start := s.wfqLastF[class]
	if start < s.wfqVirt {
		start = s.wfqVirt
	}
	st.finishTag = start + 1/float64(st.weight)
	if s.wfqLastF == nil {
		s.wfqLastF = map[string]float64{}
	}
	s.wfqLastF[class] = st.finishTag
	i := sort.Search(len(s.queue), func(i int) bool {
		q := s.queue[i]
		if q.finishTag != st.finishTag {
			return q.finishTag > st.finishTag
		}
		return q.id > st.id
	})
	s.queue = append(s.queue, nil)
	copy(s.queue[i+1:], s.queue[i:])
	s.queue[i] = st
}

// pruneWFQLocked drops the virtual-finish tags of classes with no
// remaining presence on the board (no active and no queued stream).
// Without this, a class whose last stream departed with an unserved tag
// — preempt-retired from the queue, or migrated away — keeps a finish
// tag above the system virtual time forever, and a stream of that class
// arriving much later inherits the stale tag as its start time, losing
// its fair share on re-arrival. A pruned class re-enters at the current
// front of the schedule (s.wfqVirt), the standard start-time-fair
// treatment of an idle class. Called at every round barrier and on
// migration detach. Caller holds the server mutex.
func (s *Server) pruneWFQLocked() {
	if len(s.wfqLastF) == 0 {
		return
	}
	for class := range s.wfqLastF {
		live := false
		for _, st := range s.active {
			if st.className() == class {
				live = true
				break
			}
		}
		if !live {
			for _, st := range s.queue {
				if st.className() == class {
					live = true
					break
				}
			}
		}
		if !live {
			delete(s.wfqLastF, class)
		}
	}
}

// capForLocked is the occupancy ceiling that applies to admitting a
// stream of the given weight: the board threshold, tightened by the
// feasibility demands of active streams of strictly higher weight (a
// best-effort stream may not re-enter while its presence would keep a
// gold stream's SLO infeasible). Feasibility caps are refreshed once
// per barrier by preemptLocked; without preemption the ceiling is just
// MaxOccupancy. Caller holds the server mutex.
func (s *Server) capForLocked(weight int) float64 {
	cap := s.opts.MaxOccupancy
	if !s.opts.Preempt {
		return cap
	}
	for _, st := range s.active {
		if st.weight > weight && st.feasOcc < cap {
			cap = st.feasOcc
		}
	}
	return cap
}

// headCapLocked is the occupancy ceiling for admitting the queue's head
// stream: capForLocked, further tightened for a high-weight stream that
// has never run a round — with no measurement to invert yet, the board
// threshold is scaled down by the stream's weight so a gold arrival is
// not dropped into a saturated board, where one round at full contention
// would poison its lifetime latency tail before the measurement-driven
// preemption pass could react. Caller holds the server mutex.
func (s *Server) headCapLocked(head *stream) float64 {
	cap := s.capForLocked(head.weight)
	if s.opts.Preempt && head.weight > 1 && head.recentP95 == 0 {
		if w := s.opts.MaxOccupancy / float64(head.weight); w < cap {
			cap = w
		}
	}
	return cap
}

// tailPct is the latency percentile the preemption controller plans
// against. Under mean admission it is the SLO attainment criterion's
// P95; under probabilistic admission (Options.RiskQuantile > 0) the
// measured tail tracks the same q-quantile the schedulers admit on, so
// feasibleOccLocked inverts the configured quantile — not the mean, and
// not a hardwired tail — through the contention model.
func (s *Server) tailPct() float64 {
	if s.opts.RiskQuantile > 0 {
		return 100 * s.opts.RiskQuantile
	}
	return 95
}

// feasibleOccLocked computes the highest aggregate board occupancy at
// which the stream's SLO stays feasible, by inverting its own measured
// latency through the board's contention model: the stream's recent
// tail (P95) per-frame latency — the tail, because SLO attainment is a
// P95 criterion — splits into a GPU share (its measured occupancy, the
// part the contention multiplier inflates) and a fixed CPU share, the
// multiplier that would bring the tail within the planning budget is
// solved for, and the implied contention headroom is converted back
// through the board's occupancy coupling into an aggregate-occupancy
// cap. It returns +Inf when preemption cannot help: the board is
// uncoupled, the stream has no measurement yet, or the budget is out of
// reach even with the board to itself. Caller holds the server mutex;
// all inputs are barrier-side snapshots.
func (s *Server) feasibleOccLocked(st *stream) float64 {
	if s.opts.Coupling <= 0 || st.recentP95 <= 0 || st.occ <= 0 {
		return math.Inf(1)
	}
	gpuMS := st.recentP95 * st.occ // share inflated by contention
	cpuMS := st.recentP95 - gpuMS
	mCur := simlat.ContentionMultiplier(st.lastCont)
	// solve inverts lat(g) = cpuMS + gpuMS*mult(g)/mult(cur) <= target
	// for the contention level g; negative means unreachable.
	solve := func(target float64) float64 {
		if target <= cpuMS {
			return -1
		}
		return simlat.ContentionForMultiplier(mCur * (target - cpuMS) / gpuMS)
	}
	// Plan against the safety-shrunk budget, but when even an idle board
	// cannot hit it, protect the raw SLO instead — a stream that can just
	// barely meet its SLO alone must not be written off as hopeless.
	gStar := solve(st.cfg.SLO * s.opts.SafetyFactor)
	if gStar <= st.cfg.BaseContention {
		gStar = solve(st.cfg.SLO)
	}
	if gStar <= st.cfg.BaseContention {
		return math.Inf(1) // infeasible even with the board to itself
	}
	return st.occ + float64(s.opts.GPUSlots)*(gStar-st.cfg.BaseContention)/s.opts.Coupling
}

// preemptLocked runs the barrier preemption pass: it refreshes every
// active stream's feasible-occupancy cap, then evicts the lowest-weight
// active streams while (a) a strictly higher-weight active stream's SLO
// is infeasible under the current aggregate occupancy, or (b) the
// queue's head cannot be admitted under the board threshold and
// outranks an active stream. Evicted streams re-enter the admission
// queue with a fresh WFQ tag, or — once their preemption budget is
// exhausted — retire with partial results. Caller holds the server
// mutex; runs before admission at each round barrier.
func (s *Server) preemptLocked() {
	if !s.opts.Preempt || len(s.active) == 0 {
		return
	}
	for _, st := range s.active {
		st.feasOcc = s.feasibleOccLocked(st)
	}
	for len(s.active) > 0 {
		agg := 0.0
		for _, st := range s.active {
			agg += st.occ
		}
		needW, reason := 0, ""
		for _, st := range s.active {
			if st.weight > needW && agg > st.feasOcc {
				needW = st.weight
				reason = fmt.Sprintf("tier %s SLO infeasible at occupancy %.2f (cap %.2f)",
					st.className(), agg, st.feasOcc)
			}
		}
		if needW == 0 && len(s.queue) > 0 {
			head := s.queue[0]
			if agg+head.occ > s.headCapLocked(head) {
				needW = head.weight
				reason = fmt.Sprintf("queued tier %s cannot be admitted at occupancy %.2f",
					head.className(), agg)
			}
		}
		if needW == 0 {
			return
		}
		victim := s.victimLocked(needW)
		if victim == nil {
			return
		}
		s.preemptOneLocked(victim, reason)
	}
}

// victimLocked picks the active stream to preempt for a demand of the
// given weight: the lowest-weight stream with weight strictly below the
// demand, ties broken by highest measured occupancy (evicting it frees
// the most headroom), then by highest id (youngest first). Returns nil
// when no active stream is outranked. Caller holds the server mutex.
func (s *Server) victimLocked(needW int) *stream {
	var victim *stream
	for _, st := range s.active {
		if st.weight >= needW {
			continue
		}
		if victim == nil ||
			st.weight < victim.weight ||
			(st.weight == victim.weight && st.occ > victim.occ) ||
			(st.weight == victim.weight && st.occ == victim.occ && st.id > victim.id) {
			victim = st
		}
	}
	return victim
}

// preemptOneLocked evicts one active stream: it leaves the active set at
// the barrier (its pipeline rests at a GoF boundary, the intra-board
// analogue of the migration Detach), is counted and traced, and either
// re-enters the admission queue or — past Options.PreemptLimit — retires
// with partial results. Caller holds the server mutex.
func (s *Server) preemptOneLocked(victim *stream, reason string) {
	for i, a := range s.active {
		if a == victim {
			s.active = append(s.active[:i:i], s.active[i+1:]...)
			break
		}
	}
	victim.preemptions++
	s.preempts++
	s.met.preempts.Inc()
	s.classCounter("serve_class_preemptions_total", victim.className()).Inc()
	ev := StreamEvent{
		Round:  s.rounds,
		Kind:   "preempt",
		Stream: victim.id,
		Name:   victim.cfg.Name,
		Class:  victim.className(),
		Tenant: victim.cfg.Tenant,
		Reason: reason,
	}
	if victim.preemptions > s.opts.PreemptLimit {
		ev.Retired = true
		victim.preemptRetired = true
		s.preemptRet++
		s.met.preemptRet.Inc()
		s.quarantineLocked(victim, fmt.Sprintf(
			"preemption budget exhausted (%d evictions): %s", victim.preemptions, reason))
	} else {
		s.enqueueLocked(victim)
	}
	s.events = append(s.events, ev)
}

// classCounter returns the board- and class-labeled counter for the
// given base metric name (a nil no-op counter when unobserved).
func (s *Server) classCounter(base, class string) *obs.Counter {
	r := s.opts.Observer.Registry()
	if r == nil {
		return nil
	}
	return r.Counter(obs.Labeled(base, obs.L("board", s.opts.Name), obs.L("class", class)))
}

// tenantCounter returns the board- and tenant-labeled counter, or nil
// when unobserved or the stream carries no tenant.
func (s *Server) tenantCounter(base, tenant string) *obs.Counter {
	r := s.opts.Observer.Registry()
	if r == nil || tenant == "" {
		return nil
	}
	return r.Counter(obs.Labeled(base, obs.L("board", s.opts.Name), obs.L("tenant", tenant)))
}
