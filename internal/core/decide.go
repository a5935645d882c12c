package core

import (
	"math"

	"litereconfig/internal/feat"
	"litereconfig/internal/mbek"
	"litereconfig/internal/sched"
)

// heavyKinds is the analyzer's candidate list, in the order it
// evaluates them.
var heavyKinds = feat.HeavyKinds()

// kindSets backs the single-kind fixed sets of the MaxContent and
// ForceFeature variants without a per-decision allocation.
var kindSets = func() (a [feat.NumKinds]feat.Kind) {
	for k := range a {
		a[k] = feat.Kind(k)
	}
	return a
}()

// Variant is what a scheduler variant (Sec. 4) does at one decision.
type Variant struct {
	// Fixed is the variant's fixed heavy set: ResNet50 or MobileNetV2
	// for MaxContent, the forced feature for ForceFeature, nil for Full
	// and MinCost. Callers must not modify it.
	Fixed []feat.Kind
	// Analyze runs the cost-benefit analyzer (Full only).
	Analyze bool
	// ManageOverhead charges the amortized scheduler and switching cost
	// against the SLO. The greedy MaxContent and ForceFeature variants
	// apply the SLO to the kernel only.
	ManageOverhead bool
	// Hysteresis grants the current branch the reconfiguration guard
	// bonus in the Eq. 3 argmax (Full only).
	Hysteresis bool
}

// VariantOf is Step 2's policy dispatch. Under the Full policy the
// watchdog ladder (degradeLevel > 0) or an open heavy-feature breaker
// switches the analyzer off: light-features-only mode, since heavy
// features are the expendable budget item (Table 1's cost asymmetry).
func VariantOf(p Policy, forced feat.Kind, degradeLevel int, breakerOpen bool) Variant {
	switch p {
	case PolicyFull:
		return Variant{Analyze: degradeLevel == 0 && !breakerOpen, ManageOverhead: true, Hysteresis: true}
	case PolicyMaxContentResNet:
		forced = feat.ResNet50
	case PolicyMaxContentMobileNet:
		forced = feat.MobileNetV2
	case PolicyForceFeature:
	default: // PolicyMinCost: no heavy features
		return Variant{ManageOverhead: true}
	}
	return Variant{Fixed: kindSets[forced : forced+1 : forced+1]}
}

// Plan holds one decision's inputs to the cost-benefit analyzer and the
// Eq. 3 optimizer as explicit tables. The live scheduler fills it from
// its models and the clock; the counterfactual replay engine fills it
// from a recorded payload plus knob overrides. Both run the same
// Features and Optimize over it, so they share one floating-point
// operation order by construction. A Plan is reusable: its scratch
// carries across decisions, keeping the per-GoF path off the heap.
type Plan struct {
	Variant Variant

	// Branches is the candidate set (unique branches); Ben the offline
	// benefit table Ben(f_H).
	Branches []mbek.Branch
	Ben      *sched.BenTable

	// AccLight is A(b, f_L) and KernelMS the planned kernel latency
	// L0(b, f_L) per branch.
	AccLight []float64
	KernelMS []float64
	// SwitchMS is the switching cost C(b0, b) per branch from the
	// current branch b0; nil when there is no current branch or the
	// switching cost is disabled.
	SwitchMS []float64
	// FeatMS is each heavy feature's planned extract+predict price,
	// indexed by kind.
	FeatMS [feat.NumKinds]float64

	// SLOMS is the objective, BudgetMS the planning budget (SLO x
	// SafetyFactor), CostWeight the accuracy-equivalent price of
	// scheduler latency, and S0MS the light-path scheduler cost.
	SLOMS, SafetyFactor, BudgetMS, CostWeight, S0MS float64

	// Step 4 inputs. Acc is A(b, f) under the extracted feature set and
	// SchedSpentMS the scheduler spend to amortize. RiskFactor and
	// FailProb are the per-branch quantile inflation factors and
	// tracker-failure probabilities, both nil under mean admission.
	// Hysteresis is the bonus branch Cur (-1 for none) earns when the
	// variant guards reconfigurations; Degrade is the watchdog ladder
	// level.
	Acc          []float64
	SchedSpentMS float64
	RiskFactor   []float64
	FailProb     []float64
	Hysteresis   float64
	Cur          int
	Degrade      int

	set, remaining, cand []feat.Kind // analyzer scratch
}

// amortized is branch bi's per-frame share of a per-invocation cost:
// base plus the switching cost into bi, spread over bi's GoF (the
// scheduler re-evaluates once per GoF, Sec. 3.5).
func (p *Plan) amortized(base float64, bi int) float64 {
	over := base
	if p.SwitchMS != nil {
		over += p.SwitchMS[bi]
	}
	return over / float64(p.Branches[bi].GoF)
}

// overheadMS is the per-frame scheduler and switching cost Eq. 3
// charges branch bi (zero for the kernel-only variants).
func (p *Plan) overheadMS(bi int) float64 {
	if !p.Variant.ManageOverhead {
		return 0
	}
	return p.amortized(p.SchedSpentMS, bi)
}

// perFrame prices branch bi for the constraint check: the kernel
// estimate plus, under managed overhead, the amortized overhead.
func (p *Plan) perFrame(bi int) float64 {
	if !p.Variant.ManageOverhead {
		return p.KernelMS[bi]
	}
	return p.KernelMS[bi] + p.amortized(p.SchedSpentMS, bi)
}

// riskMargin is the extra per-frame milliseconds the q-quantile adds
// over the mean for branch bi (0 under mean admission). The margin
// scales with the kernel estimate, so a contention-inflated estimate
// gets a contention-inflated margin.
func (p *Plan) riskMargin(bi int) float64 {
	if p.RiskFactor == nil {
		return 0
	}
	return p.KernelMS[bi] * (p.RiskFactor[bi] - 1)
}

// cheapest returns the branch with the lowest kernel estimate.
func (p *Plan) cheapest() int {
	best := 0
	for bi := range p.KernelMS {
		if p.KernelMS[bi] < p.KernelMS[best] {
			best = bi
		}
	}
	return best
}

// Features is Step 2: the variant's fixed heavy set, or the
// cost-benefit analyzer's selection. The second value is the
// analyzer's verdict (zero for a fixed set). The returned slice is
// Plan scratch, valid until the next call.
func (p *Plan) Features() ([]feat.Kind, float64) {
	if !p.Variant.Analyze {
		return p.Variant.Fixed, 0
	}
	return p.selectFeatures()
}

// selectFeatures is the cost-benefit analyzer (Sec. 3.4): the nested
// greedy optimization that adds heavy features one at a time as long as
// the benefit-table gain survives the shrinking kernel budget. It never
// extracts a heavy feature — costs come from FeatMS and benefits from
// the offline Ben table. The second return value is the analyzer's
// verdict: the net objective gain (predicted mAP, cost-priced) of the
// selected set over scheduling with light features only — zero when the
// set is empty. It is risk-blind: it estimates benefit, not admission;
// only the constrained optimization admits branches.
func (p *Plan) selectFeatures() ([]feat.Kind, float64) {
	// Tail-latency stall guard: feature extraction runs synchronously at
	// the GoF boundary, so a feature whose one-shot cost dwarfs the SLO
	// stalls several consecutive frames past the objective no matter how
	// it amortizes — exactly why MaxContent-MobileNet violates the tight
	// SLOs in Table 2. Candidates whose stall exceeds stallCap frames'
	// worth of budget are excluded outright.
	const stallFactor = 1.5
	stallCap := stallFactor * p.SLOMS

	set := p.set[:0]
	curVal := p.value(set)
	baseVal := curVal
	remaining := p.remaining[:0]
	for _, k := range heavyKinds {
		if p.FeatMS[k] <= stallCap {
			remaining = append(remaining, k)
		}
	}
	for len(remaining) > 0 {
		bestIdx := -1
		bestVal := curVal
		for i, cand := range remaining {
			// Evaluate set+cand through reusable scratch instead of an
			// append-copy per candidate.
			trial := append(p.cand[:0], set...)
			trial = append(trial, cand)
			p.cand = trial
			v := p.value(trial)
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
	p.set, p.remaining = set, remaining[:0]
	gain := curVal - baseVal
	if len(set) == 0 || math.IsInf(gain, 0) || math.IsNaN(gain) {
		gain = 0
	}
	return set, gain
}

// value returns the analyzer objective for a candidate feature set: the
// best feasible content-agnostic accuracy plus the set's tabled benefit
// minus the accuracy-equivalent price of the scheduler latency it
// spends, or -Inf when no branch fits.
func (p *Plan) value(set []feat.Kind) float64 {
	var featCost float64
	for _, kind := range set {
		featCost += p.FeatMS[kind]
	}
	best := math.Inf(-1)
	kernelBudget := 0.0
	bestGoF := 1.0
	for bi, b := range p.Branches {
		over := p.amortized(p.S0MS+featCost, bi)
		if p.KernelMS[bi]+over > p.BudgetMS {
			continue
		}
		if p.AccLight[bi] > best {
			best = p.AccLight[bi]
			bestGoF = float64(b.GoF)
		}
		if kb := p.BudgetMS - over; kb > kernelBudget {
			kernelBudget = kb
		}
	}
	if math.IsInf(best, -1) {
		return best
	}
	// The Ben table was built on true measured kernel latencies; the
	// online budget carries the planning safety factor, so divide it
	// out to query on the same scale.
	v := best + p.Ben.SetBenefit(set, kernelBudget/p.SafetyFactor)
	if p.CostWeight > 0 {
		v -= p.CostWeight * (featCost / bestGoF) / p.BudgetMS
	}
	return v
}

// Optimize is Step 4, the constrained optimization of Eq. 3: the
// feasible branch with the best (risk-discounted) predicted accuracy,
// or — with the watchdog ladder engaged — the cheapest one. It returns
// the chosen branch, the feasible count, whether nothing fit (the
// cheapest branch then runs) and the chosen branch's planned per-frame
// latency.
func (p *Plan) Optimize() (best, feasible int, fallback bool, predMS float64) {
	best = -1
	if p.Degrade > 0 {
		// Watchdog ladder: stop maximizing accuracy and shed latency.
		// One rung down picks the *cheapest* SLO-feasible branch; at the
		// ladder floor, feasibility reasoning itself is distrusted (the
		// predictions just missed) and the absolute cheapest branch runs.
		bestLat := math.Inf(1)
		for bi := range p.Branches {
			pf := p.perFrame(bi) + p.riskMargin(bi)
			if pf > p.BudgetMS {
				continue
			}
			feasible++
			if p.Degrade < MaxDegradeLevel && pf < bestLat {
				bestLat = pf
				best = bi
			}
		}
		if p.Degrade >= MaxDegradeLevel {
			best = p.cheapest()
		}
	} else {
		bestScore := math.Inf(-1)
		for bi := range p.Branches {
			if p.perFrame(bi)+p.riskMargin(bi) > p.BudgetMS {
				continue
			}
			feasible++
			score := p.Acc[bi]
			if p.FailProb != nil {
				// Discount by the tracker-failure probability: the argmax
				// maximizes accuracy *conditional on the branch surviving
				// its GoF*.
				score *= 1 - p.FailProb[bi]
			}
			if bi == p.Cur && p.Variant.Hysteresis && p.Hysteresis > 0 {
				score += p.Hysteresis
			}
			if score > bestScore {
				bestScore = score
				best = bi
			}
		}
	}
	fallback = best < 0
	if fallback {
		// Nothing fits: fall back to the cheapest branch by predicted
		// latency, degrading accuracy rather than stalling.
		best = p.cheapest()
	}
	return best, feasible, fallback, p.perFrame(best)
}

// WatchdogStep moves the watchdog one rung on the branch ladder after a
// realized GoF: down (towards MaxDegradeLevel) after an over-SLO GoF,
// back up (towards 0) after a within-budget one.
func WatchdogStep(level int, overrun bool) int {
	if overrun {
		if level < MaxDegradeLevel {
			level++
		}
	} else if level > 0 {
		level--
	}
	return level
}
