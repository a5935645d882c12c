package core

import "math/rand"

// breakerState is the heavy-feature circuit state.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String returns the canonical state name.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

const (
	// breakerK is the number of consecutive bad heavy-feature outcomes
	// (failed extraction, or an over-budget GoF that used heavy
	// features) before the breaker opens.
	breakerK = 3
	// breakerCooldown is the number of scheduler decisions the breaker
	// stays open before a half-open probe; the actual cooldown adds a
	// seeded jitter of up to the same amount so co-located streams do
	// not probe in lockstep.
	breakerCooldown = 8
)

// breaker is the heavy-feature circuit breaker (Table 1's cost
// asymmetry): when heavy-feature extraction keeps failing or keeps
// blowing the budget, the scheduler falls back to light-features-only
// mode rather than paying for extractions that cannot help, then
// probes its way back with a single half-open decision after a seeded
// cooldown.
type breaker struct {
	rng *rand.Rand

	state   breakerState
	bad     int // consecutive bad outcomes while closed
	waiting int // decisions left in the open state
	opens   int // times the breaker tripped
}

// newBreaker builds a closed breaker whose cooldown jitter is driven
// by seed.
func newBreaker(seed int64) *breaker {
	return &breaker{rng: rand.New(rand.NewSource(seed))}
}

// allowHeavy reports whether heavy-feature extraction may run this
// decision: always while closed, exactly the probe while half-open.
func (b *breaker) allowHeavy() bool {
	return b == nil || b.state != breakerOpen
}

// tick advances the open-state cooldown; call once per decision before
// consulting allowHeavy.
func (b *breaker) tick() {
	if b == nil || b.state != breakerOpen {
		return
	}
	b.waiting--
	if b.waiting <= 0 {
		b.state = breakerHalfOpen
	}
}

// recordBad notes a failed extraction or an over-budget heavy GoF. A
// half-open probe that fails re-opens immediately.
func (b *breaker) recordBad() {
	if b == nil {
		return
	}
	switch b.state {
	case breakerClosed:
		b.bad++
		if b.bad >= breakerK {
			b.trip()
		}
	case breakerHalfOpen:
		b.trip()
	}
}

// recordGood notes a successful heavy-feature outcome. A successful
// half-open probe closes the circuit.
func (b *breaker) recordGood() {
	if b == nil {
		return
	}
	switch b.state {
	case breakerClosed:
		b.bad = 0
	case breakerHalfOpen:
		b.state = breakerClosed
		b.bad = 0
	}
}

// trip opens the circuit with a seeded-jittered cooldown.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.bad = 0
	b.opens++
	b.waiting = breakerCooldown + b.rng.Intn(breakerCooldown)
}
