// Package nn is a small from-scratch neural-network library implementing
// exactly what the paper's accuracy prediction model needs (Sec. 4): dense
// layers with ReLU activations, a two-tower input projection (light-weight
// and content features projected to a common width and concatenated), MSE
// loss, SGD with momentum 0.9, and L2 regularization.
//
// Networks hold parameters only. Forward writes activations into a
// caller-owned Workspace and training keeps gradients and momentum in
// the Trainer's own state, so a trained network is read-only and any
// number of goroutines may run it at once, each with its own Workspace.
//
// It is intentionally minimal: float64 math, single-threaded, fully
// deterministic given a seed.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is one fully connected layer with an optional ReLU activation.
type Dense struct {
	In, Out int
	ReLU    bool

	W []float64 // Out x In, row-major
	B []float64 // Out
}

// NewDense creates a layer with He-style initialization scaled for the
// fan-in, using the provided RNG.
func NewDense(in, out int, relu bool, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid dense shape %dx%d", in, out))
	}
	d := &Dense{
		In: in, Out: out, ReLU: relu,
		W: make([]float64, in*out),
		B: make([]float64, out),
	}
	scale := math.Sqrt(2.0 / float64(in))
	for i := range d.W {
		d.W[i] = rng.NormFloat64() * scale
	}
	return d
}

// Forward computes the layer output for input x into dst, which must
// have length Out, and returns dst.
func (d *Dense) Forward(dst, x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: dense forward got %d inputs, want %d", len(x), d.In))
	}
	if len(dst) != d.Out {
		panic(fmt.Sprintf("nn: dense forward got a %d-wide output buffer, want %d", len(dst), d.Out))
	}
	for o := range dst {
		sum := d.B[o]
		row := d.W[o*d.In:][:len(x)] // len(x) == In; proves row[i] in bounds
		for i, xi := range x {
			sum += row[i] * xi
		}
		if d.ReLU && sum < 0 {
			sum = 0
		}
		dst[o] = sum
	}
	return dst
}

// ParamCount returns the number of trainable parameters.
func (d *Dense) ParamCount() int { return len(d.W) + len(d.B) }
