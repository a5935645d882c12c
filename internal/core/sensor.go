package core

import (
	"math"

	"litereconfig/internal/simlat"
)

// ContentionSensor estimates the current GPU contention level from
// observed detector latencies, the way ApproxDet's contention sensor
// does on real hardware: every detector pass whose base cost is known
// yields one noisy observation of the contention multiplier, and an
// exponentially weighted average smooths the jitter.
//
// The inversion uses the same multiplier model as the simulator
// (simlat.ContentionMultiplier: 1 + 1.2 g), which on real hardware
// corresponds to the offline-profiled contention response curve.
//
// Warm-up semantics: the very first valid observation sets the
// estimate directly (no smoothing against the zero initial state —
// otherwise a cold sensor would under-report contention for the first
// ~1/alpha GoFs); every later observation blends in with weight
// alpha = DefaultSensorAlpha.
// Before the first observation Level reports 0 (assume no contention).
type ContentionSensor struct {
	est  float64
	warm bool
}

// DefaultSensorAlpha and DefaultDriftAlpha are the stock EWMA smoothing
// weights of the contention sensor and the CPU drift estimator.
const (
	DefaultSensorAlpha = 0.4
	DefaultDriftAlpha  = 0.2
)

// NewContentionSensor returns a sensor with the default smoothing.
func NewContentionSensor() *ContentionSensor {
	return &ContentionSensor{}
}

// Observe ingests one detector pass: the actually measured cost and the
// branch's base (TX2, zero-contention) cost, on the given device.
func (s *ContentionSensor) Observe(dev simlat.Device, actualMS, baseMS float64) {
	if actualMS <= 0 || baseMS <= 0 {
		return
	}
	mult := actualMS / (baseMS * dev.GPUFactor)
	// Invert ContentionMultiplier(g) = 1 + 1.2 g.
	g := (mult - 1) / 1.2
	g = math.Max(0, math.Min(g, 0.99))
	if !s.warm {
		s.est = g
		s.warm = true
		return
	}
	s.est = (1-DefaultSensorAlpha)*s.est + DefaultSensorAlpha*g
}

// Level returns the smoothed contention estimate in [0, 0.99].
func (s *ContentionSensor) Level() float64 {
	if !s.warm {
		return 0
	}
	return s.est
}

// Warm reports whether the sensor has seen at least one observation.
func (s *ContentionSensor) Warm() bool { return s.warm }

// CPUDriftEstimator tracks the ratio between observed and predicted
// CPU-side (tracker) costs — the online-drift mechanism of Sec. 6: "if
// the compute capability or runtime environment of the devices change,
// one may re-train the latency predictor". Instead of re-training, the
// scheduler multiplies its CPU latency estimates by the smoothed ratio,
// which adapts to thermal throttling, background CPU load, or a device
// whose CPU factor differs from the profiled one. (GPU-side drift is
// indistinguishable from contention and is absorbed by the
// ContentionSensor.)
//
// Warm-up semantics match the ContentionSensor: the first valid
// observation sets the ratio directly, later ones blend in with weight
// DefaultDriftAlpha, and before any observation Ratio reports 1 (trust the
// profile).
type CPUDriftEstimator struct {
	ratio float64
	warm  bool
	// expectedFactor is the CPU device factor the latency predictions
	// already account for; observations are normalized by it.
	expectedFactor float64
}

// NewCPUDriftEstimator returns an estimator for the given device profile.
func NewCPUDriftEstimator(dev simlat.Device) *CPUDriftEstimator {
	return &CPUDriftEstimator{expectedFactor: dev.CPUFactor}
}

// Observe ingests one tracker step: observed cost and the base (TX2)
// cost it was predicted from.
func (e *CPUDriftEstimator) Observe(actualMS, baseMS float64) {
	if actualMS <= 0 || baseMS <= 0 {
		return
	}
	r := actualMS / (baseMS * e.expectedFactor)
	r = math.Max(0.25, math.Min(r, 4))
	if !e.warm {
		e.ratio = r
		e.warm = true
		return
	}
	e.ratio = (1-DefaultDriftAlpha)*e.ratio + DefaultDriftAlpha*r
}

// Ratio returns the smoothed drift multiplier (1 = no drift).
func (e *CPUDriftEstimator) Ratio() float64 {
	if !e.warm {
		return 1
	}
	return e.ratio
}
