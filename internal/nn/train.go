package nn

import (
	"fmt"
	"math/rand"
)

// Trainer holds the supervised training recipe from Sec. 4 of the paper:
// MSE loss, SGD with momentum 0.9, L2 regularization, batch size 64, up
// to 400 epochs (the paper observes convergence within 100).
type Trainer struct {
	LR       float64 // learning rate; defaults to 0.01
	Momentum float64 // defaults to 0.9
	L2       float64 // weight decay; defaults to 1e-4
	Epochs   int     // max epochs; defaults to 400
	Batch    int     // minibatch size; defaults to 64
	Seed     int64   // shuffle seed

	// Early stopping: training ends once the epoch loss fails to improve
	// by at least Tol for Patience consecutive epochs. Patience 0 disables
	// early stopping.
	Tol      float64
	Patience int
}

func (t *Trainer) applyDefaults() {
	if t.LR == 0 {
		t.LR = 0.01
	}
	if t.Momentum == 0 {
		t.Momentum = 0.9
	}
	if t.L2 == 0 {
		t.L2 = 1e-4
	}
	if t.Epochs == 0 {
		t.Epochs = 400
	}
	if t.Batch == 0 {
		t.Batch = 64
	}
}

// FitNet trains a plain MLP on (xs, ys) pairs and returns the per-epoch
// mean losses.
func (tr Trainer) FitNet(n *Net, xs, ys [][]float64) []float64 {
	tr.applyDefaults()
	if len(xs) != len(ys) {
		panic(fmt.Sprintf("nn: %d inputs vs %d targets", len(xs), len(ys)))
	}
	if len(xs) == 0 {
		return nil
	}
	ws := n.NewWorkspace()
	st := newChainState(n.Layers, false)
	forward := func(i int, grad []float64) float64 {
		pred := n.Forward(ws, xs[i])
		loss := MSEGrad(pred, ys[i], grad)
		st.backward(n.Layers, xs[i], ws.act, grad)
		return loss
	}
	step := func(lr, momentum, l2 float64, batch int) {
		st.step(n.Layers, lr, momentum, l2, batch)
	}
	return tr.run(len(xs), len(ys[0]), forward, step)
}

// FitTwoTower trains a TwoTower model on (as, bs, ys) triples and returns
// the per-epoch mean losses.
func (tr Trainer) FitTwoTower(t *TwoTower, as, bs, ys [][]float64) []float64 {
	tr.applyDefaults()
	if len(as) != len(bs) || len(as) != len(ys) {
		panic(fmt.Sprintf("nn: sample count mismatch %d/%d/%d", len(as), len(bs), len(ys)))
	}
	if len(as) == 0 {
		return nil
	}
	st := newTwoTowerState(t)
	forward := func(i int, grad []float64) float64 {
		pred := t.Forward(st.ws, as[i], bs[i])
		loss := MSEGrad(pred, ys[i], grad)
		st.backward(as[i], bs[i], grad)
		return loss
	}
	return tr.run(len(as), len(ys[0]), forward, st.step)
}

// denseState is one layer's training state: gradients accumulated
// across backward passes until step applies them, the momentum buffers,
// and the input-gradient buffer (nil for a network's input layers, whose
// input gradient nothing reads).
type denseState struct {
	gw, gb []float64
	vw, vb []float64
	gx     []float64
}

func newDenseState(d *Dense, needGX bool) denseState {
	s := denseState{
		gw: make([]float64, len(d.W)), gb: make([]float64, len(d.B)),
		vw: make([]float64, len(d.W)), vb: make([]float64, len(d.B)),
	}
	if needGX {
		s.gx = make([]float64, d.In)
	}
	return s
}

// backward takes the gradient of the loss w.r.t. the output out that
// layer d computed from input x, accumulates parameter gradients, and
// returns the gradient w.r.t. x (nil when s keeps no input gradient).
// A ReLU unit passed gradient only where its output is positive, which
// is exactly where its pre-activation was.
func (s *denseState) backward(d *Dense, x, out, gout []float64) []float64 {
	if len(gout) != d.Out {
		panic(fmt.Sprintf("nn: dense backward got %d grads, want %d", len(gout), d.Out))
	}
	for i := range s.gx {
		s.gx[i] = 0
	}
	for o := 0; o < d.Out; o++ {
		g := gout[o]
		if d.ReLU && out[o] <= 0 {
			continue
		}
		s.gb[o] += g
		row := d.W[o*d.In : (o+1)*d.In]
		grow := s.gw[o*d.In : (o+1)*d.In]
		if s.gx == nil {
			for i, xi := range x {
				grow[i] += g * xi
			}
			continue
		}
		for i, xi := range x {
			grow[i] += g * xi
			s.gx[i] += g * row[i]
		}
	}
	return s.gx
}

// step applies one SGD-with-momentum update to d using the gradients
// accumulated over batch samples, with L2 weight decay, then clears the
// accumulated gradients.
func (s *denseState) step(d *Dense, lr, momentum, l2 float64, batch int) {
	if batch <= 0 {
		batch = 1
	}
	inv := 1.0 / float64(batch)
	for i := range d.W {
		g := s.gw[i]*inv + l2*d.W[i]
		s.vw[i] = momentum*s.vw[i] - lr*g
		d.W[i] += s.vw[i]
		s.gw[i] = 0
	}
	for i := range d.B {
		g := s.gb[i] * inv // no decay on biases
		s.vb[i] = momentum*s.vb[i] - lr*g
		d.B[i] += s.vb[i]
		s.gb[i] = 0
	}
}

// chainState is the training state of a layer sequence whose first
// layer reads the chain's input.
type chainState []denseState

func newChainState(layers []*Dense, needInputGrad bool) chainState {
	c := make(chainState, len(layers))
	for i, l := range layers {
		c[i] = newDenseState(l, i > 0 || needInputGrad)
	}
	return c
}

// backward propagates gout through layers, which mapped x to act[0],
// act[0] to act[1] and so on, and returns the gradient w.r.t. x.
func (c chainState) backward(layers []*Dense, x []float64, act [][]float64, gout []float64) []float64 {
	for i := len(layers) - 1; i >= 0; i-- {
		in := x
		if i > 0 {
			in = act[i-1]
		}
		gout = c[i].backward(layers[i], in, act[i], gout)
	}
	return gout
}

func (c chainState) step(layers []*Dense, lr, momentum, l2 float64, batch int) {
	for i, l := range layers {
		c[i].step(l, lr, momentum, l2, batch)
	}
}

// twoTowerState trains a TwoTower.
type twoTowerState struct {
	net          *TwoTower
	ws           *Workspace
	projA, projB denseState
	trunk        chainState
}

func newTwoTowerState(t *TwoTower) *twoTowerState {
	return &twoTowerState{
		net:   t,
		ws:    t.NewWorkspace(),
		projA: newDenseState(t.ProjA, false),
		projB: newDenseState(t.ProjB, false),
		trunk: newChainState(t.Trunk.Layers, true),
	}
}

// backward follows a Forward of (a, b) through s.ws: the trunk's input
// gradient splits back onto the two projections.
func (s *twoTowerState) backward(a, b, gout []float64) {
	t, cat := s.net, s.ws.act[0]
	gcat := s.trunk.backward(t.Trunk.Layers, cat, s.ws.act[1:], gout)
	na := t.ProjA.Out
	s.projA.backward(t.ProjA, a, cat[:na], gcat[:na])
	s.projB.backward(t.ProjB, b, cat[na:], gcat[na:])
}

func (s *twoTowerState) step(lr, momentum, l2 float64, batch int) {
	s.projA.step(s.net.ProjA, lr, momentum, l2, batch)
	s.projB.step(s.net.ProjB, lr, momentum, l2, batch)
	s.trunk.step(s.net.Trunk.Layers, lr, momentum, l2, batch)
}

// run is the shared epoch/minibatch loop. forward processes one sample
// (accumulating gradients) and returns its loss; step applies the update.
func (tr Trainer) run(n, outDim int,
	forward func(i int, grad []float64) float64,
	step func(lr, momentum, l2 float64, batch int)) []float64 {

	rng := rand.New(rand.NewSource(tr.Seed))
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	grad := make([]float64, outDim)

	var losses []float64
	best := -1.0
	stale := 0
	for epoch := 0; epoch < tr.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		for start := 0; start < n; start += tr.Batch {
			end := start + tr.Batch
			if end > n {
				end = n
			}
			for _, i := range idx[start:end] {
				epochLoss += forward(i, grad)
			}
			step(tr.LR, tr.Momentum, tr.L2, end-start)
		}
		epochLoss /= float64(n)
		losses = append(losses, epochLoss)

		if tr.Patience > 0 {
			if best < 0 || epochLoss < best-tr.Tol {
				best = epochLoss
				stale = 0
			} else {
				stale++
				if stale >= tr.Patience {
					break
				}
			}
		}
	}
	return losses
}
