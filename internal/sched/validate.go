package sched

import (
	"fmt"

	"litereconfig/internal/feat"
	"litereconfig/internal/linreg"
	"litereconfig/internal/nn"
)

// validate checks every shape the predictors and the scheduler index:
// the networks' layer chains, their input widths against the feature
// standardizers and sketches, their output widths and the per-branch
// tables against the branch space, and the benefit table against the
// feature kinds. The first mismatch is returned, naming its field.
// Empty LatVar, FailNets and LatBiasMS stay valid: they are how bundles
// saved before risk admission and adaptation read.
func (b *Bundle) validate() error {
	nb := len(b.Branches)
	if nb == 0 {
		return fmt.Errorf("Branches is empty")
	}
	for i, br := range b.Branches {
		if br.GoF < 1 {
			return fmt.Errorf("Branches[%d] has GoF %d, want >= 1", i, br.GoF)
		}
	}
	lightDim := feat.SpecOf(feat.Light).Dim
	if err := checkNorm("LightNorm", b.LightNorm, lightDim); err != nil {
		return err
	}
	if b.LightNet == nil {
		return fmt.Errorf("LightNet is missing")
	}
	if err := checkChain("LightNet", b.LightNet.Layers, lightDim, nb); err != nil {
		return err
	}
	for k := range b.ContentNets {
		if !k.Heavy() {
			return fmt.Errorf("ContentNets has a model for %v, which is not a heavy feature", k)
		}
	}
	for k := range b.Sketch {
		if !k.Heavy() {
			return fmt.Errorf("Sketch has a projection for %v, which is not a heavy feature", k)
		}
	}
	for _, k := range feat.HeavyKinds() {
		if err := b.checkHeavy(k, lightDim, nb); err != nil {
			return err
		}
	}
	if err := checkRegressions("LatDet", b.LatDet, nb, lightDim); err != nil {
		return err
	}
	if err := checkRegressions("LatTrk", b.LatTrk, nb, lightDim); err != nil {
		return err
	}
	if n := len(b.LatVar); n != 0 && n != nb {
		return fmt.Errorf("LatVar has %d accumulators, want %d (one per branch) or none", n, nb)
	}
	if n := len(b.FailNets); n != 0 && n != nb {
		return fmt.Errorf("FailNets has %d models, want %d (one per branch) or none", n, nb)
	}
	if n := len(b.LatBiasMS); n != 0 && n != nb {
		return fmt.Errorf("LatBiasMS has %d entries, want %d (one per branch) or none", n, nb)
	}
	if b.Ben == nil {
		return fmt.Errorf("Ben is missing")
	}
	if len(b.Ben.Gain) != len(b.Ben.BudgetsMS) {
		return fmt.Errorf("Ben has %d gain rows for %d budgets", len(b.Ben.Gain), len(b.Ben.BudgetsMS))
	}
	for i, row := range b.Ben.Gain {
		if len(row) != feat.NumKinds {
			return fmt.Errorf("Ben.Gain[%d] has %d entries, want %d (one per feature kind)",
				i, len(row), feat.NumKinds)
		}
	}
	return nil
}

// checkHeavy validates heavy feature k's standardizer, sketch and
// two-tower content model.
func (b *Bundle) checkHeavy(k feat.Kind, lightDim, nb int) error {
	dim := feat.SpecOf(k).Dim
	if err := checkNorm(fmt.Sprintf("HeavyNorm[%v]", k), b.HeavyNorm[k], dim); err != nil {
		return err
	}
	towerIn := dim
	if proj := b.Sketch[k]; len(proj) > 0 {
		if len(proj) != dim {
			return fmt.Errorf("Sketch[%v] has %d rows, want %d (HeavyNorm[%v] width)", k, len(proj), dim, k)
		}
		towerIn = len(proj[0])
		for i, row := range proj {
			if len(row) != towerIn || towerIn == 0 {
				return fmt.Errorf("Sketch[%v] row %d has width %d, want %d (row 0 width, nonzero)",
					k, i, len(row), towerIn)
			}
		}
	}
	name := fmt.Sprintf("ContentNets[%v]", k)
	t := b.ContentNets[k]
	if t == nil || t.ProjA == nil || t.ProjB == nil || t.Trunk == nil {
		return fmt.Errorf("%s is missing or incomplete", name)
	}
	if err := checkChain(name+".ProjA", []*nn.Dense{t.ProjA}, lightDim, t.ProjA.Out); err != nil {
		return err
	}
	if err := checkChain(name+".ProjB", []*nn.Dense{t.ProjB}, towerIn, t.ProjB.Out); err != nil {
		return err
	}
	return checkChain(name+".Trunk", t.Trunk.Layers, t.ProjA.Out+t.ProjB.Out, nb)
}

// checkNorm validates a standardizer for a dim-wide feature.
func checkNorm(name string, s *Standardizer, dim int) error {
	if s == nil {
		return fmt.Errorf("%s is missing", name)
	}
	if len(s.Mean) != dim || len(s.Std) != dim {
		return fmt.Errorf("%s has %d means and %d deviations, want %d of each", name, len(s.Mean), len(s.Std), dim)
	}
	return nil
}

// checkChain validates a sequence of dense layers mapping in inputs to
// out outputs: every layer present with positive widths, weights and
// biases sized to them, and each layer's input the previous layer's
// output.
func checkChain(name string, layers []*nn.Dense, in, out int) error {
	if len(layers) == 0 {
		return fmt.Errorf("%s has no layers", name)
	}
	for i, l := range layers {
		switch {
		case l == nil:
			return fmt.Errorf("%s layer %d is missing", name, i)
		case l.In != in:
			return fmt.Errorf("%s layer %d takes %d inputs, want %d", name, i, l.In, in)
		case l.Out <= 0:
			return fmt.Errorf("%s layer %d has %d outputs", name, i, l.Out)
		case len(l.W) != l.In*l.Out:
			return fmt.Errorf("%s layer %d has %d weights, want In*Out = %d", name, i, len(l.W), l.In*l.Out)
		case len(l.B) != l.Out:
			return fmt.Errorf("%s layer %d has %d biases, want %d", name, i, len(l.B), l.Out)
		}
		in = l.Out
	}
	if in != out {
		return fmt.Errorf("%s outputs %d values, want %d", name, in, out)
	}
	return nil
}

// checkRegressions validates one per-branch set of latency regressions.
func checkRegressions(name string, ms []*linreg.Model, nb, dim int) error {
	if len(ms) != nb {
		return fmt.Errorf("%s has %d models, want %d (one per branch)", name, len(ms), nb)
	}
	for i, m := range ms {
		if m == nil {
			return fmt.Errorf("%s[%d] is missing", name, i)
		}
		if len(m.Coef) != dim {
			return fmt.Errorf("%s[%d] has %d coefficients, want %d (light feature width)", name, i, len(m.Coef), dim)
		}
	}
	return nil
}
