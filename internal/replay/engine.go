package replay

import (
	"fmt"
	"math"
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

	override    *variant
	hasOverride bool
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
		e.override = &variant{policy: p, forced: k}
		e.hasOverride = true
	}
	if cfg.SLOMS < 0 || cfg.SafetyFactor < 0 {
		return nil, fmt.Errorf("replay: negative SLO or safety factor")
	}
	if cfg.RiskQuantile != nil && (*cfg.RiskQuantile < 0 || *cfg.RiskQuantile >= 1) {
		return nil, fmt.Errorf("replay: RiskQuantile override must be in [0, 1), got %v", *cfg.RiskQuantile)
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

// redecide mirrors core.Scheduler.Decide over one recorded decision's
// captured inputs. Every arithmetic step reproduces the scheduler's
// exact operation order, so with unchanged knobs the result is
// bit-identical to the recording.
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

	// Effective knobs: configured overrides, else as recorded.
	slo := rp.SLOMS
	if e.cfg.SLOMS > 0 {
		slo = e.cfg.SLOMS
	}
	safety := rp.SafetyFactor
	if e.cfg.SafetyFactor > 0 {
		safety = e.cfg.SafetyFactor
	}
	budget := slo * safety
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
	var v variant
	var manageOverhead bool
	if e.hasOverride {
		v = *e.override
		manageOverhead = v.manageOverhead()
	} else {
		p, k, err := core.PolicyByName(d.Policy)
		if err != nil {
			return Redecision{}, fmt.Errorf("replay: %w (%s)", err, at())
		}
		v = variant{policy: p, forced: k}
		manageOverhead = rp.ManageOverhead
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
	// switchMS prices C(b0, b): the recorded per-branch costs (which
	// include adapter-observed estimates) whenever the counterfactual
	// sits on the recorded branch, the offline model otherwise.
	switchMS := func(bi int) float64 {
		if cur == recordedCur && rp.SwitchMS != nil {
			return rp.SwitchMS[bi]
		}
		return mbek.SwitchCostMS(e.models.Branches[cur], e.models.Branches[bi])
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

	// Prediction tables: recorded, or recomputed from the bundle and
	// the recorded feature vectors + scale factors (UseModelPredictions).
	accLight := rp.AccLight
	kernelMS := rp.KernelMS
	cpuAdj := rp.CPUAdj
	if cpuAdj == 0 {
		cpuAdj = 1
	}
	if e.cfg.UseModelPredictions {
		if len(rp.Light) == 0 {
			return Redecision{}, fmt.Errorf("replay: %s: payload has no light feature vector", at())
		}
		accLight = e.models.PredictAccuracyLight(rp.Light)
		cpuAdj = e.models.CPUAdjFactor()
		kernelMS = make([]float64, n)
		for bi := range kernelMS {
			det, trk := e.models.PredictLatency(bi, rp.Light)
			kernelMS[bi] = det*rp.GPUScale + trk*rp.CPUScale*cpuAdj + e.models.LatencyBiasMS(bi)
		}
	}

	// Heavy-feature prices as the analyzer saw them.
	featCost := func(k feat.Kind) (float64, error) {
		c, ok := rp.FeatCostMS[k.String()]
		if !ok {
			return 0, fmt.Errorf("replay: %s: payload has no cost for feature %v", at(), k)
		}
		return c, nil
	}

	// Step 2 mirror: decide the heavy feature set.
	var selected []feat.Kind
	switch v.policy {
	case core.PolicyMinCost:
	case core.PolicyMaxContentResNet:
		selected = []feat.Kind{feat.ResNet50}
	case core.PolicyMaxContentMobileNet:
		selected = []feat.Kind{feat.MobileNetV2}
	case core.PolicyForceFeature:
		selected = []feat.Kind{v.forced}
	case core.PolicyFull:
		if degradeLevel > 0 || brkOpen {
			break
		}
		var err error
		selected, err = e.selectFeatures(rp, accLight, kernelMS, budget, slo, costW,
			hasCur, noSwitch, switchMS, featCost)
		if err != nil {
			return Redecision{}, err
		}
	}

	// Step 3 mirror: map the selected set onto the recorded extraction
	// environment. Recorded extraction failures fail again (they are
	// the environment, not the policy); selections the recording never
	// extracted have no vectors and degrade the estimate loudly.
	recorded := d.Features
	sameSet := equalKindNames(selected, recorded)
	failed := map[string]bool{}
	for _, name := range d.FailedFeatures {
		failed[name] = true
	}
	missingHeavy := 0
	var extracted []feat.Kind
	var heavy map[feat.Kind][]float64
	for _, k := range selected {
		name := k.String()
		if failed[name] {
			continue
		}
		vec, ok := rp.Heavy[name]
		if !ok {
			missingHeavy++
			continue
		}
		if heavy == nil {
			heavy = make(map[feat.Kind][]float64, len(selected))
		}
		heavy[k] = vec
		extracted = append(extracted, k)
	}
	var acc []float64
	switch {
	case sameSet && !e.cfg.UseModelPredictions:
		// Identity path: the recorded content-aware table when heavy
		// features survived, else the content-agnostic one (what
		// PredictAccuracySet returns for an empty set).
		if len(rp.Acc) == n {
			acc = rp.Acc
		} else {
			acc = accLight
		}
	case len(extracted) == 0:
		acc = accLight
	default:
		acc = e.models.PredictAccuracySet(extracted, rp.Light, heavy)
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
			c, err := featCost(k)
			if err != nil {
				return Redecision{}, err
			}
			schedSpent += c
		}
		if schedSpent < 0 {
			schedSpent = 0
		}
	}

	// Risk-admission mirror: a risk-recorded payload (PolicyRev ≥ 1)
	// carries the exact per-branch quantile inflation factors and
	// tracker-failure probabilities the live admission used, so replay
	// reproduces the risk procedure bit-exactly without variance state.
	// The Config.RiskQuantile override instead re-derives both from the
	// engine's models (counterfactual risk level), or forces mean
	// admission at zero.
	riskOn := false
	var riskF, failP []float64
	if e.cfg.RiskQuantile == nil {
		if rp.PolicyRev >= 1 && rp.RiskQ > 0 {
			if len(rp.RiskFactor) != n || len(rp.FailProb) != n {
				return Redecision{}, fmt.Errorf("replay: %s: risk payload tables truncated (risk_factor %d, fail_prob %d, want %d)", at(), len(rp.RiskFactor), len(rp.FailProb), n)
			}
			riskOn = true
			riskF, failP = rp.RiskFactor, rp.FailProb
		}
	} else if q := *e.cfg.RiskQuantile; q > 0 {
		riskOn = true
		z := glm.NormalQuantile(q)
		riskF = make([]float64, n)
		failP = make([]float64, n)
		for bi := 0; bi < n; bi++ {
			riskF[bi] = e.models.QuantileFactor(bi, z)
			if len(rp.Light) > 0 {
				failP[bi] = e.models.PredictFailProb(bi, rp.Light)
			}
		}
	}

	// Step 4 mirror: constrained optimization over the candidate set.
	perFrame := func(bi int) float64 {
		p := kernelMS[bi]
		if manageOverhead {
			over := schedSpent
			if hasCur && !noSwitch {
				over += switchMS(bi)
			}
			p += over / float64(e.models.Branches[bi].GoF)
		}
		return p
	}
	riskMargin := func(bi int) float64 {
		if !riskOn {
			return 0
		}
		return kernelMS[bi] * (riskF[bi] - 1)
	}
	bestIdx := -1
	bestScore := math.Inf(-1)
	feasible := 0
	if degradeLevel > 0 {
		bestLat := math.Inf(1)
		for bi := range e.models.Branches {
			pf := perFrame(bi) + riskMargin(bi)
			if pf > budget {
				continue
			}
			feasible++
			if degradeLevel < core.MaxDegradeLevel && pf < bestLat {
				bestLat = pf
				bestIdx = bi
			}
		}
		if degradeLevel >= core.MaxDegradeLevel {
			bestIdx = 0
			for bi := range kernelMS {
				if kernelMS[bi] < kernelMS[bestIdx] {
					bestIdx = bi
				}
			}
		}
	} else {
		for bi := range e.models.Branches {
			if perFrame(bi)+riskMargin(bi) > budget {
				continue
			}
			feasible++
			score := acc[bi]
			if riskOn {
				score *= 1 - failP[bi]
			}
			if hasCur && bi == cur && hyst > 0 && v.policy == core.PolicyFull {
				score += hyst
			}
			if score > bestScore {
				bestScore = score
				bestIdx = bi
			}
		}
	}
	fallback := bestIdx < 0
	if fallback {
		bestIdx = 0
		for bi := range kernelMS {
			if kernelMS[bi] < kernelMS[bestIdx] {
				bestIdx = bi
			}
		}
	}
	predMS := perFrame(bestIdx)
	predAcc := acc[bestIdx]
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
		if estMS > slo {
			if *simLevel < core.MaxDegradeLevel {
				*simLevel++
			}
		} else if *simLevel > 0 {
			*simLevel--
		}
	}
	return rd, nil
}

// selectFeatures mirrors the cost-benefit analyzer (core.Scheduler
// .selectFeatures) over the recorded prices and tables: the same greedy
// loop, the same value function, the same operation order.
func (e *Engine) selectFeatures(rp *obs.ReplayPayload, accLight, kernelMS []float64,
	budget, slo, costW float64, hasCur, noSwitch bool,
	switchMS func(int) float64, featCost func(feat.Kind) (float64, error)) ([]feat.Kind, error) {

	safety := rp.SafetyFactor
	if e.cfg.SafetyFactor > 0 {
		safety = e.cfg.SafetyFactor
	}
	s0 := rp.S0MS

	value := func(set []feat.Kind) (float64, error) {
		var fc float64
		for _, kind := range set {
			c, err := featCost(kind)
			if err != nil {
				return 0, err
			}
			fc += c
		}
		best := math.Inf(-1)
		kernelBudget := 0.0
		bestGoF := 1.0
		for bi, b := range e.models.Branches {
			over := s0 + fc
			if hasCur && !noSwitch {
				over += switchMS(bi)
			}
			pf := kernelMS[bi] + over/float64(b.GoF)
			if pf > budget {
				continue
			}
			if accLight[bi] > best {
				best = accLight[bi]
				bestGoF = float64(b.GoF)
			}
			if kb := budget - over/float64(b.GoF); kb > kernelBudget {
				kernelBudget = kb
			}
		}
		if math.IsInf(best, -1) {
			return best, nil
		}
		v := best + e.models.Ben.SetBenefit(set, kernelBudget/safety)
		if costW > 0 {
			v -= costW * (fc / bestGoF) / budget
		}
		return v, nil
	}

	const stallFactor = 1.5
	stallCap := stallFactor * slo

	var set []feat.Kind
	curVal, err := value(set)
	if err != nil {
		return nil, err
	}
	var remaining []feat.Kind
	for _, k := range e.heavyKinds {
		c, err := featCost(k)
		if err != nil {
			return nil, err
		}
		if c <= stallCap {
			remaining = append(remaining, k)
		}
	}
	var trial []feat.Kind
	for len(remaining) > 0 {
		bestIdx := -1
		bestVal := curVal
		for i, cand := range remaining {
			trial = append(trial[:0], set...)
			trial = append(trial, cand)
			v, err := value(trial)
			if err != nil {
				return nil, err
			}
			if v > bestVal+1e-9 {
				bestVal = v
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		set = append(set, remaining[bestIdx])
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		curVal = bestVal
	}
	return set, nil
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
