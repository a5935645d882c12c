package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestDenseForwardKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 2, false, rng)
	// Overwrite with known weights: y0 = x0 + 2*x1 + 1, y1 = -x0 + 0.5.
	d.W = []float64{1, 2, -1, 0}
	d.B = []float64{1, 0.5}
	y := d.Forward(make([]float64, 2), []float64{3, 4})
	if math.Abs(y[0]-12) > 1e-12 || math.Abs(y[1]-(-2.5)) > 1e-12 {
		t.Fatalf("forward = %v", y)
	}
}

func TestDenseReLUClampsNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(1, 1, true, rng)
	d.W = []float64{-1}
	d.B = []float64{0}
	if y := d.Forward(make([]float64, 1), []float64{5}); y[0] != 0 {
		t.Fatalf("ReLU output = %v, want 0", y[0])
	}
	if y := d.Forward(make([]float64, 1), []float64{-5}); y[0] != 5 {
		t.Fatalf("ReLU output = %v, want 5", y[0])
	}
}

func TestDensePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(0, 3, false, rand.New(rand.NewSource(1)))
}

// numericGradCheck verifies backprop against finite differences for a
// small network.
func TestGradientCheck(t *testing.T) {
	n := NewNet(3, 4, 5, 2)
	x := []float64{0.3, -0.7, 1.2, 0.1}
	target := []float64{0.5, -0.2}
	ws := n.NewWorkspace()
	st := newChainState(n.Layers, false)

	loss := func() float64 {
		pred := n.Forward(ws, x)
		var l float64
		for i := range pred {
			d := pred[i] - target[i]
			l += d * d
		}
		return l / float64(len(pred))
	}

	// Analytic gradients.
	grad := make([]float64, 2)
	pred := n.Forward(ws, x)
	MSEGrad(pred, target, grad)
	st.backward(n.Layers, x, ws.act, grad)

	const eps = 1e-6
	for li, layer := range n.Layers {
		for wi := range layer.W {
			analytic := st[li].gw[wi]
			orig := layer.W[wi]
			layer.W[wi] = orig + eps
			lp := loss()
			layer.W[wi] = orig - eps
			lm := loss()
			layer.W[wi] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(analytic-numeric) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d weight %d: analytic %v vs numeric %v",
					li, wi, analytic, numeric)
			}
		}
		for bi := range layer.B {
			analytic := st[li].gb[bi]
			orig := layer.B[bi]
			layer.B[bi] = orig + eps
			lp := loss()
			layer.B[bi] = orig - eps
			lm := loss()
			layer.B[bi] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(analytic-numeric) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d bias %d: analytic %v vs numeric %v",
					li, bi, analytic, numeric)
			}
		}
	}
}

func TestTwoTowerGradientCheck(t *testing.T) {
	tt := NewTwoTower(TwoTowerConfig{InA: 3, InB: 4, ProjDim: 5,
		Hidden: []int{6}, Out: 2, Seed: 7})
	a := []float64{0.1, -0.5, 0.9}
	b := []float64{0.4, 0.2, -0.3, 0.8}
	target := []float64{0.3, 0.7}
	st := newTwoTowerState(tt)

	loss := func() float64 {
		pred := tt.Forward(st.ws, a, b)
		var l float64
		for i := range pred {
			d := pred[i] - target[i]
			l += d * d
		}
		return l / float64(len(pred))
	}
	grad := make([]float64, 2)
	pred := tt.Forward(st.ws, a, b)
	MSEGrad(pred, target, grad)
	st.backward(a, b, grad)

	const eps = 1e-6
	check := func(name string, w []float64, g []float64) {
		for i := range w {
			orig := w[i]
			w[i] = orig + eps
			lp := loss()
			w[i] = orig - eps
			lm := loss()
			w[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if math.Abs(g[i]-numeric) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, i, g[i], numeric)
			}
		}
	}
	check("projA.W", tt.ProjA.W, st.projA.gw)
	check("projB.W", tt.ProjB.W, st.projB.gw)
	check("trunk0.W", tt.Trunk.Layers[0].W, st.trunk[0].gw)
}

func TestNetLearnsLinearFunction(t *testing.T) {
	// y = 2a - b + 0.5 is learnable to near-zero loss.
	rng := rand.New(rand.NewSource(5))
	var xs, ys [][]float64
	for i := 0; i < 256; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		xs = append(xs, []float64{a, b})
		ys = append(ys, []float64{2*a - b + 0.5})
	}
	n := NewNet(1, 2, 16, 1)
	tr := Trainer{LR: 0.05, Epochs: 200, Seed: 1}
	losses := tr.FitNet(n, xs, ys)
	final := losses[len(losses)-1]
	if final > 1e-3 {
		t.Fatalf("final loss = %v, want < 1e-3 (first %v)", final, losses[0])
	}
	if losses[0] < final {
		t.Fatal("loss did not decrease")
	}
}

func TestNetLearnsNonlinearFunction(t *testing.T) {
	// y = |a| requires the hidden ReLU layer.
	rng := rand.New(rand.NewSource(6))
	var xs, ys [][]float64
	for i := 0; i < 512; i++ {
		a := rng.Float64()*2 - 1
		xs = append(xs, []float64{a})
		ys = append(ys, []float64{math.Abs(a)})
	}
	n := NewNet(2, 1, 16, 1)
	tr := Trainer{LR: 0.05, Epochs: 300, Seed: 2}
	losses := tr.FitNet(n, xs, ys)
	if final := losses[len(losses)-1]; final > 5e-3 {
		t.Fatalf("final loss = %v, want < 5e-3", final)
	}
}

func TestTwoTowerLearnsCrossDependence(t *testing.T) {
	// Output depends on both towers: y = a0 * b0.
	rng := rand.New(rand.NewSource(8))
	var as, bs, ys [][]float64
	for i := 0; i < 512; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		as = append(as, []float64{a})
		bs = append(bs, []float64{b})
		ys = append(ys, []float64{a * b})
	}
	tt := NewTwoTower(TwoTowerConfig{InA: 1, InB: 1, ProjDim: 8,
		Hidden: []int{16, 16}, Out: 1, Seed: 3})
	tr := Trainer{LR: 0.02, Epochs: 400, Seed: 4}
	losses := tr.FitTwoTower(tt, as, bs, ys)
	if final := losses[len(losses)-1]; final > 1e-2 {
		t.Fatalf("final loss = %v, want < 1e-2", final)
	}
}

func TestTrainerDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var xs, ys [][]float64
	for i := 0; i < 64; i++ {
		a := rng.Float64()
		xs = append(xs, []float64{a})
		ys = append(ys, []float64{a * 2})
	}
	run := func() float64 {
		n := NewNet(11, 1, 8, 1)
		tr := Trainer{Epochs: 20, Seed: 12}
		losses := tr.FitNet(n, xs, ys)
		return losses[len(losses)-1]
	}
	if run() != run() {
		t.Fatal("training not deterministic")
	}
}

func TestEarlyStopping(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	var xs, ys [][]float64
	for i := 0; i < 64; i++ {
		a := rng.Float64()
		xs = append(xs, []float64{a})
		ys = append(ys, []float64{a})
	}
	n := NewNet(13, 1, 8, 1)
	tr := Trainer{Epochs: 400, Seed: 5, Tol: 1e-12, Patience: 5}
	losses := tr.FitNet(n, xs, ys)
	if len(losses) >= 400 {
		t.Fatalf("early stopping never fired: ran %d epochs", len(losses))
	}
}

func TestL2ShrinksWeights(t *testing.T) {
	// With pure-noise targets and strong L2, weights shrink toward zero
	// relative to no regularization.
	rng := rand.New(rand.NewSource(11))
	var xs, ys [][]float64
	for i := 0; i < 128; i++ {
		xs = append(xs, []float64{rng.Float64()*2 - 1})
		ys = append(ys, []float64{rng.NormFloat64()})
	}
	norm := func(l2 float64) float64 {
		n := NewNet(17, 1, 16, 1)
		tr := Trainer{LR: 0.01, L2: l2, Epochs: 100, Seed: 6}
		tr.FitNet(n, xs, ys)
		var s float64
		for _, l := range n.Layers {
			for _, w := range l.W {
				s += w * w
			}
		}
		return s
	}
	weak, strong := norm(1e-6), norm(1e-2)
	if strong >= weak {
		t.Fatalf("L2 did not shrink weights: weak=%v strong=%v", weak, strong)
	}
}

func TestParamCount(t *testing.T) {
	n := NewNet(1, 4, 5, 2)
	// (4*5 + 5) + (5*2 + 2) = 25 + 12 = 37.
	if got := n.ParamCount(); got != 37 {
		t.Fatalf("ParamCount = %d, want 37", got)
	}
	tt := NewTwoTower(TwoTowerConfig{InA: 2, InB: 3, ProjDim: 4,
		Hidden: []int{5}, Out: 1, Seed: 1})
	// projA: 2*4+4=12, projB: 3*4+4=16, trunk: 8*5+5=45, 5*1+1=6 -> 79.
	if got := tt.ParamCount(); got != 79 {
		t.Fatalf("TwoTower ParamCount = %d, want 79", got)
	}
}

func TestMSEGrad(t *testing.T) {
	grad := make([]float64, 2)
	loss := MSEGrad([]float64{1, 3}, []float64{0, 1}, grad)
	// ((1)^2 + (2)^2)/2 ... careful: loss = sum(d^2)*inv where inv=1/2,
	// then *inv again at return: implementation returns mean of squares.
	if math.Abs(loss-2.5) > 1e-12 {
		t.Fatalf("loss = %v, want 2.5", loss)
	}
	if math.Abs(grad[0]-1) > 1e-12 || math.Abs(grad[1]-2) > 1e-12 {
		t.Fatalf("grad = %v, want [1 2]", grad)
	}
}

func TestFitEmptyInputs(t *testing.T) {
	n := NewNet(1, 2, 1)
	if losses := (Trainer{}).FitNet(n, nil, nil); losses != nil {
		t.Fatal("empty fit should return nil")
	}
}
