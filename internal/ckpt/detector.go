package ckpt

import "sort"

// Detector defaults.
const (
	// DefaultLeaseBarriers is how many consecutive missed barrier
	// heartbeats make a board suspect.
	DefaultLeaseBarriers = 2
	// DefaultMaxRetries is how many probes a suspect board gets before
	// it is declared dead — enough to ride out a short blackout.
	DefaultMaxRetries = 2
	// DefaultBackoffBase is the first retry delay in barriers; each
	// further probe doubles it, plus seeded jitter in
	// [0, DefaultBackoffBase).
	DefaultBackoffBase = 2
)

// DetectorConfig tunes the virtual-time failure detector.
type DetectorConfig struct {
	// LeaseBarriers is the heartbeat lease: a board missing this many
	// consecutive barriers becomes suspect. Zero takes the default.
	LeaseBarriers int
	// MaxRetries bounds the probes a suspect board gets before death is
	// declared. Zero takes the default; negative means no retries
	// (death on the first probe).
	MaxRetries int
	// Seed drives the jitter; fixed seeds give identical schedules.
	Seed int64
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.LeaseBarriers <= 0 {
		c.LeaseBarriers = DefaultLeaseBarriers
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	return c
}

// Transition is one detector state change, emitted in deterministic
// (board-name) order within a barrier.
type Transition struct {
	Board   string
	Barrier int
	// Kind is "suspect" (lease expired), "probe" (a retry fired and the
	// board is still silent), "recovered" (a suspect board beat again —
	// a blackout ended) or "dead" (retries exhausted; permanent).
	Kind string
	// Attempt numbers the probe for "probe"/"dead" transitions.
	Attempt int
}

type boardState struct {
	lastBeat  int
	suspect   bool
	attempt   int
	nextProbe int
	dead      bool
}

// Detector is the fleet's virtual-time failure detector: boards renew
// a lease by beating (being steppable) at each barrier; a board silent
// past its lease becomes suspect and gets bounded retries with
// deterministic exponential backoff plus seeded jitter — riding out
// transient blackouts — before being declared dead. Time is the fleet
// barrier index; no wall-clock is consulted anywhere.
type Detector struct {
	cfg    DetectorConfig
	boards []string
	state  map[string]*boardState
}

// NewDetector builds a detector over the named boards, all considered
// alive with a fresh lease at barrier 0.
func NewDetector(cfg DetectorConfig, boards []string) *Detector {
	d := &Detector{
		cfg:    cfg.withDefaults(),
		boards: append([]string(nil), boards...),
		state:  make(map[string]*boardState, len(boards)),
	}
	sort.Strings(d.boards)
	for _, b := range d.boards {
		d.state[b] = &boardState{}
	}
	return d
}

// Observe advances the detector to the given barrier with the set of
// boards that beat (were steppable) there, and returns the transitions
// in board-name order. A dead board stays dead — the caller must fence
// it — even if a late beat would have arrived.
func (d *Detector) Observe(barrier int, beats map[string]bool) []Transition {
	var out []Transition
	for _, b := range d.boards {
		st := d.state[b]
		if st.dead {
			continue
		}
		if beats[b] {
			st.lastBeat = barrier
			if st.suspect {
				st.suspect = false
				st.attempt = 0
				out = append(out, Transition{Board: b, Barrier: barrier, Kind: "recovered"})
			}
			continue
		}
		if !st.suspect {
			if barrier-st.lastBeat >= d.cfg.LeaseBarriers {
				st.suspect = true
				st.attempt = 0
				st.nextProbe = barrier + d.backoff(b, 0)
				out = append(out, Transition{Board: b, Barrier: barrier, Kind: "suspect"})
			}
			continue
		}
		if barrier >= st.nextProbe {
			st.attempt++
			if st.attempt > d.cfg.MaxRetries {
				st.dead = true
				out = append(out, Transition{Board: b, Barrier: barrier, Kind: "dead", Attempt: st.attempt})
				continue
			}
			st.nextProbe = barrier + d.backoff(b, st.attempt)
			out = append(out, Transition{Board: b, Barrier: barrier, Kind: "probe", Attempt: st.attempt})
		}
	}
	return out
}

// backoff returns the probe delay for the given attempt:
// DefaultBackoffBase doubled per attempt, plus deterministic jitter in
// [0, DefaultBackoffBase) keyed by (seed, board, attempt) — retries
// de-correlate across boards without any randomness source shared with
// the simulation.
func (d *Detector) backoff(board string, attempt int) int {
	if attempt > 16 {
		attempt = 16 // cap the shift; leases are a handful of barriers
	}
	base := DefaultBackoffBase << uint(attempt)
	h := d.cfg.Seed
	for _, c := range []byte(board) {
		h = h*131 + int64(c)
	}
	h = h*1000003 + int64(attempt+1)*7919
	jitter := int(uint64(h) % DefaultBackoffBase)
	return base + jitter
}

// Dead reports whether the board has been declared dead.
func (d *Detector) Dead(board string) bool {
	st := d.state[board]
	return st != nil && st.dead
}

// Suspect reports whether the board is currently suspect (lease
// expired, retries not yet exhausted).
func (d *Detector) Suspect(board string) bool {
	st := d.state[board]
	return st != nil && st.suspect && !st.dead
}

// LastBeat returns the barrier of the board's most recent heartbeat
// (0 before its first).
func (d *Detector) LastBeat(board string) int {
	st := d.state[board]
	if st == nil {
		return 0
	}
	return st.lastBeat
}
