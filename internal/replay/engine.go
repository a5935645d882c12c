package replay

import (
	"fmt"
	"slices"
	"strings"

	"litereconfig/internal/core"
	"litereconfig/internal/feat"
	"litereconfig/internal/glm"
	"litereconfig/internal/mbek"
	"litereconfig/internal/obs"
	"litereconfig/internal/sched"
)

// Engine re-executes the scheduler over a corpus of replay-enriched
// decision traces. It is deterministic and single-goroutine; build one
// per configuration.
type Engine struct {
	cfg        Config
	models     *sched.Models
	branchIdx  map[string]int
	heavyKinds []feat.Kind

	// policy and forced are the Config.Policy override (hasOverride).
	policy      core.Policy
	forced      feat.Kind
	hasOverride bool
	riskZ       float64 // z-score of a positive Config.RiskQuantile

	// Per-decision scratch, reused across redecisions.
	plan         core.Plan
	scrAccLight  []float64
	scrKernelMS  []float64
	scrSwitch    []float64
	scrAcc       []float64
	scrRiskF     []float64
	scrFailP     []float64
	scrHeavy     map[feat.Kind][]float64
	scrExtracted []feat.Kind
}

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Models == nil {
		return nil, fmt.Errorf("replay: Models is required")
	}
	e := &Engine{
		cfg:        cfg,
		models:     cfg.Models,
		branchIdx:  make(map[string]int, len(cfg.Models.Branches)),
		heavyKinds: feat.HeavyKinds(),
		scrHeavy:   map[feat.Kind][]float64{},
	}
	for i, b := range cfg.Models.Branches {
		e.branchIdx[b.String()] = i
	}
	if cfg.Policy != "" {
		// A blank override is a typo, not "as recorded" or "full".
		if strings.TrimSpace(cfg.Policy) == "" {
			return nil, fmt.Errorf("replay: unknown policy override %q", cfg.Policy)
		}
		p, k, err := core.ParsePolicy(cfg.Policy)
		if err != nil {
			return nil, fmt.Errorf("replay: policy override: %w", err)
		}
		e.policy, e.forced, e.hasOverride = p, k, true
	}
	if cfg.SLOMS < 0 || cfg.SafetyFactor < 0 {
		return nil, fmt.Errorf("replay: negative SLO or safety factor")
	}
	if cfg.RiskQuantile != nil && (*cfg.RiskQuantile < 0 || *cfg.RiskQuantile >= 1) {
		return nil, fmt.Errorf("replay: RiskQuantile override must be in [0, 1), got %v", *cfg.RiskQuantile)
	}
	if cfg.RiskQuantile != nil && *cfg.RiskQuantile > 0 {
		e.riskZ = glm.NormalQuantile(*cfg.RiskQuantile)
	}
	return e, nil
}

// Redecision is one replayed scheduling decision, paired with its
// recorded counterpart's identity and the counterfactual outcome
// estimate.
type Redecision struct {
	File     string
	Stream   int
	Gen      int
	Seq      int
	SLOMS    float64 // the SLO this decision was replayed under
	Branch   string
	Features []string
	Feasible int
	Fallback bool
	PredAcc  float64
	PredMS   float64
	// EstMS is the estimated realized per-frame GoF latency of the
	// replayed decision: the recorded realization when the replay chose
	// the recorded branch and feature set, otherwise the replayed
	// prediction scaled by the recorded realized/predicted residual.
	EstMS    float64
	Frames   int
	Attained bool
	// Diverged lists the fields on which the replayed decision differs
	// from the recording (empty for a faithful reproduction). Under the
	// identity configuration any entry is a fidelity violation.
	Diverged []string
	// MissingHeavy counts heavy features the replay selected whose
	// vectors the recording never extracted — their content models could
	// not contribute, so the accuracy estimate for this decision is
	// partially content-blind.
	MissingHeavy int
}

// Outcome aggregates estimated results over a replayed (or recorded)
// decision stream. All means are frame-weighted; decisions whose GoF
// never executed (zero recorded frames) carry no weight.
type Outcome struct {
	Decisions int
	GoFs      int
	Frames    int
	// AttainRate is the fraction of frames inside GoFs whose estimated
	// per-frame latency met the (replay) SLO.
	AttainRate float64
	// MeanAccuracy is the mean predicted accuracy of the decisions that
	// governed each frame.
	MeanAccuracy float64
	// MeanMS is the mean estimated per-frame latency.
	MeanMS float64
}

// Result is one replay pass over a corpus.
type Result struct {
	// Redecisions holds every replayed decision in corpus order.
	Redecisions []Redecision
	// Replayed and Recorded are the outcome estimates of the replayed
	// and the recorded decision streams, both judged against the replay
	// SLO — their deltas are the counterfactual value of the knob change.
	Replayed Outcome
	Recorded Outcome
	// DivergedDecisions counts replayed decisions that differ from the
	// recording on any compared field; MissingHeavy sums the
	// content-blind feature selections (see Redecision.MissingHeavy).
	DivergedDecisions int
	MissingHeavy      int
}

// Divergences returns the redecisions that differ from the recording.
func (r *Result) Divergences() []Redecision {
	var out []Redecision
	for i := range r.Redecisions {
		if len(r.Redecisions[i].Diverged) > 0 {
			out = append(out, r.Redecisions[i])
		}
	}
	return out
}

// Replay re-decides every decision in the corpus under the engine's
// configuration. Decisions lacking the replay payload, or whose payload
// does not match the engine's branch space, fail loudly — a corpus that
// cannot be replayed must never read as "replayed with zero
// divergence".
func (e *Engine) Replay(c *Corpus) (*Result, error) {
	res := &Result{}
	var recAcc, recMS, repAcc, repMS weighted
	for fi := range c.Files {
		f := &c.Files[fi]
		for i := 0; i < len(f.Decisions); {
			j := i
			for j < len(f.Decisions) &&
				f.Decisions[j].Stream == f.Decisions[i].Stream &&
				f.Decisions[j].Gen == f.Decisions[i].Gen {
				j++
			}
			if err := e.replayChain(f.Path, f.Decisions[i:j], res,
				&recAcc, &recMS, &repAcc, &repMS); err != nil {
				return nil, err
			}
			i = j
		}
	}
	res.Replayed.MeanAccuracy = repAcc.mean()
	res.Replayed.MeanMS = repMS.mean()
	res.Replayed.finishRates()
	res.Recorded.MeanAccuracy = recAcc.mean()
	res.Recorded.MeanMS = recMS.mean()
	res.Recorded.finishRates()
	return res, nil
}

// weighted accumulates a frame-weighted mean.
type weighted struct{ sum, w float64 }

func (a *weighted) add(v, w float64) { a.sum += v * w; a.w += w }
func (a *weighted) mean() float64 {
	if a.w == 0 {
		return 0
	}
	return a.sum / a.w
}

// attained is tracked in Outcome.AttainRate as a frame count until
// finishRates converts it to a rate.
func (o *Outcome) finishRates() {
	if o.Frames > 0 {
		o.AttainRate /= float64(o.Frames)
	}
}

// replayChain replays one (file, stream, gen) chain in seq order,
// threading the counterfactual current-branch state and the simulated
// watchdog level through its decisions.
func (e *Engine) replayChain(path string, ds []obs.Decision, res *Result,
	recAcc, recMS, repAcc, repMS *weighted) error {

	curIdx := -1 // replayed current branch (chained), -1 before the first decision
	simLevel := 0
	// Until the replay's branch choice first diverges from the recording
	// the chain follows the recorded current-branch state verbatim —
	// including environmental discontinuities the scheduler never caused
	// (a kernel rebuilt fresh after recovery or migration). From the
	// first divergence on, the counterfactual branch chains forward.
	chainDiverged := false
	for di := range ds {
		d := &ds[di]
		rd, err := e.redecide(path, d, &curIdx, &simLevel, &chainDiverged)
		if err != nil {
			return err
		}
		res.Redecisions = append(res.Redecisions, rd)
		if len(rd.Diverged) > 0 {
			res.DivergedDecisions++
		}
		res.MissingHeavy += rd.MissingHeavy

		// Outcome accounting, replayed and recorded, both against the
		// replay SLO. Decisions whose GoF never ran carry no weight.
		res.Replayed.Decisions++
		res.Recorded.Decisions++
		if d.GoFFrames > 0 {
			w := float64(d.GoFFrames)
			res.Replayed.GoFs++
			res.Replayed.Frames += d.GoFFrames
			repAcc.add(rd.PredAcc, w)
			repMS.add(rd.EstMS, w)
			if rd.Attained {
				res.Replayed.AttainRate += w
			}
			res.Recorded.GoFs++
			res.Recorded.Frames += d.GoFFrames
			recAcc.add(d.PredAccuracy, w)
			recMS.add(d.RealizedMS, w)
			if d.RealizedMS <= rd.SLOMS {
				res.Recorded.AttainRate += w
			}
		}
	}
	return nil
}

// redecide re-takes one recorded decision. It fills a core.Plan from
// the recorded inputs and the knob overrides and runs the scheduler's
// own cost-benefit analyzer and Eq. 3 optimizer over it, so with
// unchanged knobs the result is bit-identical to the recording. What
// is replay's own: reading the payload, the overrides, mapping the
// selection onto the recorded extraction environment, the fidelity
// diff and the outcome estimate.
func (e *Engine) redecide(path string, d *obs.Decision, curIdx, simLevel *int, chainDiverged *bool) (Redecision, error) {
	at := func() string {
		return fmt.Sprintf("%s: stream %d gen %d seq %d", path, d.Stream, d.Gen, d.Seq)
	}
	rp := d.Replay
	if rp == nil {
		return Redecision{}, fmt.Errorf("replay: %s: decision has no replay payload (record the trace with the replay flag on)", at())
	}
	n := len(e.models.Branches)
	if rp.NumBranches != n {
		return Redecision{}, fmt.Errorf("replay: %s: trace recorded %d branches, models have %d — wrong model bundle", at(), rp.NumBranches, n)
	}
	if len(rp.AccLight) != n || len(rp.KernelMS) != n {
		return Redecision{}, fmt.Errorf("replay: %s: payload tables truncated (acc_light %d, kernel_ms %d, want %d)", at(), len(rp.AccLight), len(rp.KernelMS), n)
	}
	if rp.SwitchMS != nil && len(rp.SwitchMS) != n {
		return Redecision{}, fmt.Errorf("replay: %s: switch_ms table truncated (%d, want %d)", at(), len(rp.SwitchMS), n)
	}
	// Feature vectors feed the bundle's models, which index them by the
	// widths they were trained on.
	if want := e.models.FeatureDim(feat.Light); len(rp.Light) != want {
		return Redecision{}, fmt.Errorf("replay: %s: light vector has %d dims, models expect %d", at(), len(rp.Light), want)
	}
	// The payload prices every heavy kind, as the analyzer saw them.
	plan := &e.plan
	for _, k := range e.heavyKinds {
		if vec, ok := rp.Heavy[k.String()]; ok && len(vec) != e.models.FeatureDim(k) {
			return Redecision{}, fmt.Errorf("replay: %s: %v vector has %d dims, models expect %d", at(), k, len(vec), e.models.FeatureDim(k))
		}
		c, ok := rp.FeatCostMS[k.String()]
		if !ok {
			return Redecision{}, fmt.Errorf("replay: %s: payload has no cost for feature %v", at(), k)
		}
		plan.FeatMS[k] = c
	}

	// Effective knobs: configured overrides, else as recorded.
	slo := rp.SLOMS
	if e.cfg.SLOMS > 0 {
		slo = e.cfg.SLOMS
	}
	safety := rp.SafetyFactor
	if e.cfg.SafetyFactor > 0 {
		safety = e.cfg.SafetyFactor
	}
	hyst := rp.Hysteresis
	if e.cfg.Hysteresis != nil {
		hyst = *e.cfg.Hysteresis
	}
	costW := rp.CostWeight
	if e.cfg.CostWeight != nil {
		costW = *e.cfg.CostWeight
	}
	noSwitch := rp.DisableSwitchCost
	if e.cfg.DisableSwitchCost != nil {
		noSwitch = *e.cfg.DisableSwitchCost
	}

	// Variant: the override, else the recorded policy name.
	policy, forced := e.policy, e.forced
	if !e.hasOverride {
		var err error
		policy, forced, err = core.PolicyByName(d.Policy)
		if err != nil {
			return Redecision{}, fmt.Errorf("replay: %w (%s)", err, at())
		}
	}

	// Current-branch state: a recorded fresh kernel (no branch yet —
	// stream start, or rebuilt after recovery or migration) resets the
	// chain; otherwise the recorded branch while the chain still tracks
	// the recording, the chained counterfactual branch after the first
	// divergence.
	hasCur := rp.HasCur
	recordedCur := -1
	if rp.HasCur {
		bi, ok := e.branchIdx[rp.CurBranch]
		if !ok {
			return Redecision{}, fmt.Errorf("replay: %s: recorded current branch %q not in model bundle", at(), rp.CurBranch)
		}
		recordedCur = bi
	} else {
		*curIdx = -1
	}
	cur := *curIdx
	if !*chainDiverged || cur < 0 {
		cur = recordedCur
	}

	// Degradation state for this decision.
	degradeLevel := 0
	brkOpen := false
	switch e.cfg.Degrade {
	case DegradeRecorded:
		degradeLevel = d.Degrade
		brkOpen = d.Breaker == "open"
	case DegradeOff:
		// all zero
	case DegradeSim:
		degradeLevel = *simLevel
		brkOpen = d.Breaker == "open"
	}

	plan.Variant = core.VariantOf(policy, forced, degradeLevel, brkOpen)
	if !e.hasOverride {
		plan.Variant.ManageOverhead = rp.ManageOverhead
	}
	plan.Branches, plan.Ben = e.models.Branches, e.models.Ben
	plan.SLOMS, plan.SafetyFactor, plan.BudgetMS = slo, safety, slo*safety
	plan.CostWeight, plan.S0MS = costW, rp.S0MS

	// Prediction tables: recorded, or recomputed from the bundle and
	// the recorded feature vectors + scale factors (UseModelPredictions).
	plan.AccLight, plan.KernelMS = rp.AccLight, rp.KernelMS
	if e.cfg.UseModelPredictions {
		e.scrAccLight = e.models.PredictAccuracyLightInto(e.scrAccLight, rp.Light)
		cpuAdj := e.models.CPUAdjFactor()
		e.scrKernelMS = slices.Grow(e.scrKernelMS[:0], n)[:n]
		for bi := range e.scrKernelMS {
			det, trk := e.models.PredictLatency(bi, rp.Light)
			e.scrKernelMS[bi] = det*rp.GPUScale + trk*rp.CPUScale*cpuAdj + e.models.LatencyBiasMS(bi)
		}
		plan.AccLight, plan.KernelMS = e.scrAccLight, e.scrKernelMS
	}

	// C(b0, b): the recorded per-branch costs (which include
	// adapter-observed estimates) whenever the counterfactual sits on
	// the recorded branch, the offline model otherwise.
	plan.SwitchMS = nil
	if hasCur && !noSwitch {
		e.scrSwitch = slices.Grow(e.scrSwitch[:0], n)[:n]
		for bi, b := range e.models.Branches {
			if cur == recordedCur && rp.SwitchMS != nil {
				e.scrSwitch[bi] = rp.SwitchMS[bi]
			} else {
				e.scrSwitch[bi] = mbek.SwitchCostMS(e.models.Branches[cur], b)
			}
		}
		plan.SwitchMS = e.scrSwitch
	}

	selected, _ := plan.Features()

	// Map the selected set onto the recorded extraction environment.
	// Recorded extraction failures fail again (they are the environment,
	// not the policy); selections the recording never extracted have no
	// vectors and degrade the estimate loudly.
	recorded := d.Features
	sameSet := equalKindNames(selected, recorded)
	missingHeavy := 0
	clear(e.scrHeavy)
	extracted := e.scrExtracted[:0]
	for _, k := range selected {
		name := k.String()
		if slices.Contains(d.FailedFeatures, name) {
			continue
		}
		vec, ok := rp.Heavy[name]
		if !ok {
			missingHeavy++
			continue
		}
		e.scrHeavy[k] = vec
		extracted = append(extracted, k)
	}
	e.scrExtracted = extracted
	switch {
	case sameSet && !e.cfg.UseModelPredictions:
		// Identity path: the recorded content-aware table when heavy
		// features survived, else the content-agnostic one (what
		// PredictAccuracySet returns for an empty set).
		if len(rp.Acc) == n {
			plan.Acc = rp.Acc
		} else {
			plan.Acc = plan.AccLight
		}
	case len(extracted) == 0:
		plan.Acc = plan.AccLight
	default:
		e.scrAcc = e.models.PredictAccuracySetInto(e.scrAcc, extracted, rp.Light, e.scrHeavy)
		plan.Acc = e.scrAcc
	}

	// Scheduler spend: the recorded realization when the feature set is
	// unchanged; otherwise adjusted by the estimated price delta of the
	// selection change.
	schedSpent := rp.SchedSpentMS
	if !sameSet {
		for _, name := range recorded {
			if c, ok := rp.FeatCostMS[name]; ok {
				schedSpent -= c
			}
		}
		for _, k := range selected {
			schedSpent += plan.FeatMS[k]
		}
		if schedSpent < 0 {
			schedSpent = 0
		}
	}
	plan.SchedSpentMS = schedSpent

	// Risk admission: a risk-recorded payload (PolicyRev ≥ 1) carries
	// the exact per-branch quantile inflation factors and
	// tracker-failure probabilities the live admission used, so replay
	// reproduces the risk procedure bit-exactly without variance state.
	// The Config.RiskQuantile override instead re-derives both from the
	// engine's models (counterfactual risk level), or forces mean
	// admission at zero.
	plan.RiskFactor, plan.FailProb = nil, nil
	if e.cfg.RiskQuantile == nil {
		if rp.PolicyRev >= 1 && rp.RiskQ > 0 {
			if len(rp.RiskFactor) != n || len(rp.FailProb) != n {
				return Redecision{}, fmt.Errorf("replay: %s: risk payload tables truncated (risk_factor %d, fail_prob %d, want %d)", at(), len(rp.RiskFactor), len(rp.FailProb), n)
			}
			plan.RiskFactor, plan.FailProb = rp.RiskFactor, rp.FailProb
		}
	} else if *e.cfg.RiskQuantile > 0 {
		e.scrRiskF = slices.Grow(e.scrRiskF[:0], n)[:n]
		e.scrFailP = slices.Grow(e.scrFailP[:0], n)[:n]
		for bi := 0; bi < n; bi++ {
			e.scrRiskF[bi] = e.models.QuantileFactor(bi, e.riskZ)
			e.scrFailP[bi] = e.models.PredictFailProb(bi, rp.Light)
		}
		plan.RiskFactor, plan.FailProb = e.scrRiskF, e.scrFailP
	}

	plan.Hysteresis, plan.Cur, plan.Degrade = hyst, cur, degradeLevel
	bestIdx, feasible, fallback, predMS := plan.Optimize()
	predAcc := plan.Acc[bestIdx]
	branchName := e.models.Branches[bestIdx].String()

	// Fidelity comparison against the recording.
	var diverged []string
	if branchName != d.Branch {
		diverged = append(diverged, "branch")
	}
	if !sameSet {
		diverged = append(diverged, "features")
	}
	if feasible != d.FeasibleBranches {
		diverged = append(diverged, "feasible")
	}
	if fallback != d.Fallback {
		diverged = append(diverged, "fallback")
	}
	if predAcc != d.PredAccuracy {
		diverged = append(diverged, "pred_acc")
	}
	if predMS != d.PredLatencyMS {
		diverged = append(diverged, "pred_lat")
	}

	// Counterfactual outcome estimate: ground truth when the replay
	// took the recorded action, else the replayed prediction anchored by
	// the recorded realized-vs-predicted residual.
	estMS := d.RealizedMS
	if branchName != d.Branch || !sameSet {
		ratio := 1.0
		if d.RealizedMS > 0 && d.PredLatencyMS > 0 {
			ratio = d.RealizedMS / d.PredLatencyMS
			if ratio < 0.25 {
				ratio = 0.25
			} else if ratio > 4 {
				ratio = 4
			}
		}
		estMS = predMS * ratio
	}

	rd := Redecision{
		File: path, Stream: d.Stream, Gen: d.Gen, Seq: d.Seq,
		SLOMS:        slo,
		Branch:       branchName,
		Feasible:     feasible,
		Fallback:     fallback,
		PredAcc:      predAcc,
		PredMS:       predMS,
		EstMS:        estMS,
		Frames:       d.GoFFrames,
		Attained:     estMS <= slo,
		Diverged:     diverged,
		MissingHeavy: missingHeavy,
	}
	for _, k := range selected {
		rd.Features = append(rd.Features, k.String())
	}

	// Chain state forward: the kernel leaves this GoF on the chosen
	// branch, and the simulated watchdog reacts to the estimated
	// realization the way ObserveGoF reacts to the real one.
	*curIdx = bestIdx
	if branchName != d.Branch {
		*chainDiverged = true
	}
	if e.cfg.Degrade == DegradeSim && d.GoFFrames > 0 {
		*simLevel = core.WatchdogStep(*simLevel, estMS > slo)
	}
	return rd, nil
}

// equalKindNames reports whether the selected kinds equal the recorded
// name list, in order (the greedy emits a deterministic order, so order
// is part of the invariant).
func equalKindNames(kinds []feat.Kind, names []string) bool {
	if len(kinds) != len(names) {
		return false
	}
	for i, k := range kinds {
		if k.String() != names[i] {
			return false
		}
	}
	return true
}
