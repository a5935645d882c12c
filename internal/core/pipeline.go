package core

import (
	"litereconfig/internal/contend"
	"litereconfig/internal/detect"
	"litereconfig/internal/fault"
	"litereconfig/internal/harness"
	"litereconfig/internal/mbek"
	"litereconfig/internal/obs"
	"litereconfig/internal/simlat"
	"litereconfig/internal/vid"
)

// Pipeline is the end-to-end LiteReconfig system: the MBEK (Faster R-CNN
// plus trackers) driven by a Scheduler variant. It implements
// harness.Protocol.
type Pipeline struct {
	Sched *Scheduler
	Det   detect.Model

	// ExtraPerFrameMS adds a constant CPU-side per-frame pipeline
	// overhead, charged to the "pipeline" component. Zero for
	// LiteReconfig; the ApproxDet baseline models its heavier TF-1.x
	// pipeline with it.
	ExtraPerFrameMS float64
	// NameOverride replaces the scheduler variant name (baselines reuse
	// this pipeline under their own name).
	NameOverride string
	// MemoryGB is the resident working set reported in Table 3.
	MemoryGB float64
	// Observer is the opt-in observability view Run attaches to its
	// stepper (decision trace + GoF latency metrics). Copied from
	// Options.Observer by NewPipeline; to attach one after construction
	// use SetObserver, which also wires the scheduler.
	Observer *obs.StreamObserver

	// Faults is the rate-driven fault schedule (nil or disabled = no
	// faults). Run builds a fresh injector per run, seeded by FaultSeed,
	// attaches it to the scheduler and stepper, and wraps the contention
	// generator with the injector's burst windows. Copied from
	// Options.Faults by NewPipeline.
	Faults *fault.Config
	// FaultSeed decorrelates fault schedules across streams sharing one
	// Faults config; zero means stream 1.
	FaultSeed int64
}

// SetObserver attaches the observability view to both the pipeline's
// stepper wiring and its scheduler. Must be called before Run.
func (p *Pipeline) SetObserver(so *obs.StreamObserver) {
	p.Observer = so
	p.Sched.SetObserver(so)
}

// NewPipeline builds the standard LiteReconfig pipeline for the given
// scheduler options.
func NewPipeline(opts Options) (*Pipeline, error) {
	s, err := New(opts)
	if err != nil {
		return nil, err
	}
	mem := 3.4 + 0.27 // detector + light predictor
	switch opts.Policy {
	case PolicyFull, PolicyMaxContentMobileNet:
		mem += 0.45 // MobileNetV2 extractor resident
	}
	return &Pipeline{Sched: s, Det: detect.FasterRCNN, MemoryGB: mem,
		Observer: opts.Observer, Faults: opts.Faults}, nil
}

// Name implements harness.Protocol.
func (p *Pipeline) Name() string {
	if p.NameOverride != "" {
		return p.NameOverride
	}
	return p.Sched.Name()
}

// pipelineDecider is the stepper's view of the scheduler. When the
// pipeline has a constant per-frame overhead (ExtraPerFrameMS > 0) it
// charges each GoF's share of it at the decision that opens the GoF,
// which approximates a per-frame cost without modifying the shared loop.
type pipelineDecider struct{ p *Pipeline }

// Decide implements harness.Decider.
func (d pipelineDecider) Decide(k *mbek.Kernel, clock *simlat.Clock, v *vid.Video, f vid.Frame) mbek.Branch {
	b := d.p.Sched.Decide(k, clock, v, f)
	if d.p.ExtraPerFrameMS > 0 {
		clock.Charge("pipeline", simlat.CPU, d.p.ExtraPerFrameMS*float64(b.GoF))
	}
	return b
}

// ObserveGoF implements harness.GoFFeedback, feeding realized GoF
// latency into the scheduler's degradation watchdog.
func (d pipelineDecider) ObserveGoF(frames int, avgMS float64) {
	d.p.Sched.ObserveGoF(frames, avgMS)
}

// AdaptActive and ObserveGoFOutcome implement harness.OutcomeFeedback;
// ObserveSwitch implements harness.SwitchFeedback. All three forward to
// the scheduler's online adapter.
func (d pipelineDecider) AdaptActive() bool { return d.p.Sched.AdaptActive() }

func (d pipelineDecider) ObserveGoFOutcome(o harness.GoFOutcome) {
	d.p.Sched.ObserveGoFOutcome(o)
}

func (d pipelineDecider) ObserveSwitch(from, to mbek.Branch, costMS float64) {
	d.p.Sched.ObserveSwitch(from, to, costMS)
}

// injector builds the per-run fault injector, or nil for an unfaulted
// run.
func (p *Pipeline) injector() *fault.Injector {
	if p.Faults == nil || !p.Faults.Enabled() {
		return nil
	}
	seed := p.FaultSeed
	if seed == 0 {
		seed = 1
	}
	return fault.NewInjector(*p.Faults, seed)
}

// Run implements harness.Protocol.
func (p *Pipeline) Run(videos []*vid.Video, clock *simlat.Clock, cg contend.Generator) *harness.Result {
	res := &harness.Result{MemoryGB: p.MemoryGB}
	k := mbek.NewKernel(p.Det, clock)
	inj := p.injector()
	p.Sched.SetInjector(inj) // resets degradation state every run
	cg = fault.WrapContention(cg, inj)
	s := harness.NewStepper(k, pipelineDecider{p}, videos, clock, cg, res)
	s.SetObserver(p.Observer)
	s.SetInjector(inj)
	for s.Step() {
	}
	s.Finish()
	res.FeatureUse = p.Sched.FeatureUse()
	return res
}
