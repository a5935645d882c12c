package main

import (
	"litereconfig/internal/serve"
	"litereconfig/internal/workload"
)

// arrivalSource is the benchmark's fleet.Source: it hands out an
// open-loop arrival schedule whose stream configs (and so their videos)
// were all built during set-up, so video generation never lands inside
// the timed window.
//
// Arrivals are due in simulated time: the fleet polls Take once per
// barrier with its virtual clock (barrier index × tick), never with wall
// time. Generator lateness is therefore zero by construction, and a slow
// barrier delays the wall clock without changing which arrivals land
// where — wall time never feeds back into the schedule.
//
// With a tracer attached, every Take closes the previous barrier span
// and opens the next one, so a barrier span covers the interval between
// two successive polls; it is named by whether the poll that opened it
// handed out arrivals (that barrier then pays their admission).
type arrivalSource struct {
	at   []float64
	cfgs []serve.StreamConfig
	next int

	takes int
	tr    *tracer
	open  int // id of the open barrier span, -1 when none
}

// newArrivalSource materializes every arrival of a schedule. Each
// arrival's own seed — its video and its stochastic realization — is
// redrawn from the content seed, so the schedule fixes only the traffic.
func newArrivalSource(s *workload.Schedule, content int64) *arrivalSource {
	src := &arrivalSource{open: -1}
	for _, a := range s.Arrivals {
		a.Seed = streamSeed(content, a.Index)
		src.at = append(src.at, a.AtMS)
		src.cfgs = append(src.cfgs, a.StreamConfig())
	}
	return src
}

// Take implements fleet.Source.
func (s *arrivalSource) Take(nowMS float64) []serve.StreamConfig {
	s.takes++
	first := s.next
	for s.next < len(s.at) && s.at[s.next] <= nowMS {
		s.next++
	}
	if s.tr != nil {
		s.tr.end(s.open)
		if s.next > first {
			s.open = s.tr.begin("fleet.arrival_barrier")
		} else {
			s.open = s.tr.begin("fleet.idle_barrier")
		}
	}
	if s.next == first {
		return nil
	}
	return s.cfgs[first:s.next:s.next]
}

// Exhausted implements fleet.Source.
func (s *arrivalSource) Exhausted() bool { return s.next >= len(s.at) }

// closeBarrier ends the last open barrier span once the fleet run has
// returned.
func (s *arrivalSource) closeBarrier() {
	s.tr.end(s.open)
	s.open = -1
}
