package nn

import (
	"fmt"
	"math/rand"
)

// Net is a plain multilayer perceptron: dense layers with ReLU on all but
// the last.
type Net struct {
	Layers []*Dense
}

// NewNet builds an MLP with the given layer sizes (sizes[0] is the input
// dimension, sizes[len-1] the output dimension). All hidden layers use
// ReLU; the output layer is linear.
func NewNet(seed int64, sizes ...int) *Net {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	rng := rand.New(rand.NewSource(seed))
	n := &Net{}
	for i := 0; i+1 < len(sizes); i++ {
		relu := i+2 < len(sizes)
		n.Layers = append(n.Layers, NewDense(sizes[i], sizes[i+1], relu, rng))
	}
	return n
}

// Workspace holds the activations of one forward pass through a Net or
// a TwoTower: one buffer per layer output, all cut from one backing
// array. Build it with the network's NewWorkspace. A Workspace serves
// one forward pass at a time; the network itself is read-only.
type Workspace struct {
	act [][]float64
}

// newWorkspace cuts one buffer per layer output from one backing array,
// after a leading buffer of width lead when lead is positive.
func newWorkspace(lead int, layers []*Dense) *Workspace {
	total := lead
	for _, l := range layers {
		total += l.Out
	}
	buf := make([]float64, total)
	ws := &Workspace{act: make([][]float64, 0, len(layers)+1)}
	if lead > 0 {
		ws.act = append(ws.act, buf[:lead:lead])
		buf = buf[lead:]
	}
	for _, l := range layers {
		ws.act = append(ws.act, buf[:l.Out:l.Out])
		buf = buf[l.Out:]
	}
	return ws
}

// forwardChain runs layers in sequence, layer i writing into act[i].
func forwardChain(layers []*Dense, act [][]float64, x []float64) []float64 {
	for i, l := range layers {
		x = l.Forward(act[i], x)
	}
	return x
}

// NewWorkspace allocates the activation buffers for one forward pass.
func (n *Net) NewWorkspace() *Workspace { return newWorkspace(0, n.Layers) }

// Forward runs the network with activations in ws, which must come from
// n.NewWorkspace. The returned slice is ws's output buffer, overwritten
// by the next Forward through ws.
func (n *Net) Forward(ws *Workspace, x []float64) []float64 {
	return forwardChain(n.Layers, ws.act, x)
}

// ParamCount returns the total number of trainable parameters.
func (n *Net) ParamCount() int {
	total := 0
	for _, l := range n.Layers {
		total += l.ParamCount()
	}
	return total
}

// MSEGrad computes the mean-squared-error loss between pred and target
// and writes dLoss/dPred into grad (which must have the same length).
// The loss is averaged over output dimensions.
func MSEGrad(pred, target, grad []float64) float64 {
	if len(pred) != len(target) || len(pred) != len(grad) {
		panic(fmt.Sprintf("nn: MSE size mismatch %d/%d/%d", len(pred), len(target), len(grad)))
	}
	var loss float64
	inv := 1.0 / float64(len(pred))
	for i := range pred {
		d := pred[i] - target[i]
		loss += d * d
		grad[i] = 2 * d * inv
	}
	return loss * inv
}

// TwoTower is the paper's accuracy-predictor architecture (Sec. 4): the
// light-weight feature vector and the content-feature vector are each
// projected by a fully connected layer into ProjDim-sized vectors, the two
// projections are concatenated, and a trunk MLP maps the concatenation to
// one output per execution branch.
type TwoTower struct {
	ProjA *Dense // light-weight feature projection
	ProjB *Dense // content feature projection
	Trunk *Net
}

// TwoTowerConfig sizes a TwoTower network.
type TwoTowerConfig struct {
	InA, InB int   // input dims of the two towers
	ProjDim  int   // projection width (paper: 256)
	Hidden   []int // trunk hidden layer widths (paper: 256 x 4 for a 6-layer net)
	Out      int   // number of execution branches M
	Seed     int64
}

// NewTwoTower builds the two-tower network.
func NewTwoTower(cfg TwoTowerConfig) *TwoTower {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &TwoTower{
		ProjA: NewDense(cfg.InA, cfg.ProjDim, false, rng),
		ProjB: NewDense(cfg.InB, cfg.ProjDim, false, rng),
	}
	sizes := append([]int{2 * cfg.ProjDim}, cfg.Hidden...)
	sizes = append(sizes, cfg.Out)
	trunk := &Net{}
	for i := 0; i+1 < len(sizes); i++ {
		relu := i+2 < len(sizes)
		trunk.Layers = append(trunk.Layers, NewDense(sizes[i], sizes[i+1], relu, rng))
	}
	t.Trunk = trunk
	return t
}

// NewWorkspace allocates the activation buffers for one forward pass:
// the concatenated projections, then one buffer per trunk layer.
func (t *TwoTower) NewWorkspace() *Workspace {
	return newWorkspace(t.ProjA.Out+t.ProjB.Out, t.Trunk.Layers)
}

// Forward runs the two-tower network on the (light, content) input pair
// with activations in ws, which must come from t.NewWorkspace. The two
// projections write straight into their halves of the concatenation.
func (t *TwoTower) Forward(ws *Workspace, a, b []float64) []float64 {
	cat := ws.act[0]
	na := t.ProjA.Out
	t.ProjA.Forward(cat[:na], a)
	t.ProjB.Forward(cat[na:], b)
	return forwardChain(t.Trunk.Layers, ws.act[1:], cat)
}

// ParamCount returns the total number of trainable parameters.
func (t *TwoTower) ParamCount() int {
	return t.ProjA.ParamCount() + t.ProjB.ParamCount() + t.Trunk.ParamCount()
}
