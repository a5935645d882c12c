package main

import (
	"runtime"

	"litereconfig/internal/adapt"
	"litereconfig/internal/contend"
	"litereconfig/internal/core"
	"litereconfig/internal/harness"
	"litereconfig/internal/mbek"
	"litereconfig/internal/obs"
	"litereconfig/internal/sched"
	"litereconfig/internal/serve"
	"litereconfig/internal/simlat"
	"litereconfig/internal/vid"
)

// shadowSettings are the engine settings a workload's streams run
// under, applied to every shadow stream.
type shadowSettings struct {
	RiskQuantile float64
	Adapt        bool
	ReplayTrace  bool
}

// The shadow loop reaches the layers the engines hide. For a sample of
// a workload's streams it builds each stream the way the serving engine
// does — Models.Clone, core.NewPipeline, harness.NewStepper — on the
// stream's own video, SLO, seed and base contention, and steps it to the
// end outside any engine. Cross-stream coupling is left out (the
// contention is the stream's fixed base level), so the loop isolates
// per-stream cost from board interaction.

// allocMeter accumulates heap allocation deltas per layer call.
type allocMeter struct {
	cloneAllocs, cloneBytes, clones uint64
	decideAllocs, decides           uint64
	stepAllocs, steps               uint64
	ms                              runtime.MemStats
}

func (m *allocMeter) read() (mallocs, bytes uint64) {
	runtime.ReadMemStats(&m.ms)
	return m.ms.Mallocs, m.ms.TotalAlloc
}

// timedDecider wraps the scheduler handed to the stepper: it records a
// core.decide span (or the allocations) around every Decide and forwards
// the stepper's GoF, outcome and switch feedback unchanged, so the
// wrapped stream takes exactly the decisions of the unwrapped one.
type timedDecider struct {
	s   *core.Scheduler
	tr  *tracer
	mem *allocMeter
}

func (d *timedDecider) Decide(k *mbek.Kernel, clock *simlat.Clock, v *vid.Video, f vid.Frame) mbek.Branch {
	if d.mem != nil {
		a0, _ := d.mem.read()
		b := d.s.Decide(k, clock, v, f)
		a1, _ := d.mem.read()
		d.mem.decideAllocs += a1 - a0
		d.mem.decides++
		return b
	}
	id := d.tr.begin("core.decide")
	b := d.s.Decide(k, clock, v, f)
	d.tr.end(id)
	return b
}

// ObserveGoF implements harness.GoFFeedback.
func (d *timedDecider) ObserveGoF(frames int, avgMS float64) { d.s.ObserveGoF(frames, avgMS) }

// AdaptActive and ObserveGoFOutcome implement harness.OutcomeFeedback.
func (d *timedDecider) AdaptActive() bool { return d.s.AdaptActive() }

func (d *timedDecider) ObserveGoFOutcome(o harness.GoFOutcome) { d.s.ObserveGoFOutcome(o) }

// ObserveSwitch implements harness.SwitchFeedback.
func (d *timedDecider) ObserveSwitch(from, to mbek.Branch, costMS float64) {
	d.s.ObserveSwitch(from, to, costMS)
}

// shadowRun configures one pass of the shadow loop.
type shadowRun struct {
	models  *sched.Models
	streams []serve.StreamConfig
	set     shadowSettings
	// observer records the streams' decision traces (nil = unobserved).
	observer *obs.Observer
	// wrap hands the stepper the timedDecider instead of the bare
	// scheduler; tr and mem select what the wrapper records.
	wrap bool
	tr   *tracer
	mem  *allocMeter
}

// run steps every sampled stream to completion, one after another.
func (r shadowRun) run() error {
	for i, cfg := range r.streams {
		if err := r.stream(i, cfg); err != nil {
			return err
		}
	}
	return nil
}

func (r shadowRun) stream(id int, cfg serve.StreamConfig) error {
	root := r.tr.begin("shadow.stream")
	defer r.tr.end(root)

	sp := r.tr.begin("sched.clone")
	var a0, b0 uint64
	if r.mem != nil {
		a0, b0 = r.mem.read()
	}
	models, err := r.models.Clone()
	if r.mem != nil {
		a1, b1 := r.mem.read()
		r.mem.cloneAllocs += a1 - a0
		r.mem.cloneBytes += b1 - b0
		r.mem.clones++
	}
	r.tr.end(sp)
	if err != nil {
		return err
	}

	so := r.observer.StreamObserver(id, cfg.Name)
	var ac *adapt.Config
	if r.set.Adapt {
		ac = &adapt.Config{Label: "shadow"}
	}
	sp = r.tr.begin("core.new_pipeline")
	p, err := core.NewPipeline(core.Options{
		Models: models, SLO: cfg.SLO, Policy: cfg.Policy, Observer: so,
		Degrade: cfg.Degrade, Adapt: ac,
		ReplayTrace:  r.set.ReplayTrace,
		RiskQuantile: r.set.RiskQuantile,
	})
	r.tr.end(sp)
	if err != nil {
		return err
	}

	sp = r.tr.begin("harness.new_stepper")
	clock := simlat.NewClock(simlat.TX2, cfg.Seed)
	k := mbek.NewKernel(p.Det, clock)
	var d harness.Decider = p.Sched
	if r.wrap {
		d = &timedDecider{s: p.Sched, tr: r.tr, mem: r.mem}
	}
	st := harness.NewStepper(k, d, []*vid.Video{cfg.Video}, clock,
		contend.Fixed{G: cfg.BaseContention}, &harness.Result{})
	st.SetObserver(so)
	r.tr.end(sp)

	for {
		var more bool
		if r.mem != nil {
			a0, _ := r.mem.read()
			more = st.Step()
			a1, _ := r.mem.read()
			if more {
				r.mem.stepAllocs += a1 - a0
				r.mem.steps++
			}
		} else {
			sp = r.tr.begin("harness.step")
			more = st.Step()
			r.tr.end(sp)
		}
		if !more {
			break
		}
	}
	st.Finish()
	return nil
}

// measureShadowAllocs runs the shadow loop pinned to one processor and
// returns per-call allocation counts. Heap counters are read around each
// call; on a single goroutine the runtime allocates nothing in the
// background, so the counts repeat exactly for a fixed seed.
func measureShadowAllocs(r shadowRun) (*allocMeter, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	r.mem = &allocMeter{}
	r.tr = nil
	r.wrap = true
	if err := r.run(); err != nil {
		return nil, err
	}
	return r.mem, nil
}
