package sched

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"litereconfig/internal/detect"
	"litereconfig/internal/feat"
	"litereconfig/internal/glm"
	"litereconfig/internal/linreg"
	"litereconfig/internal/mbek"
	"litereconfig/internal/nn"
)

// Bundle is the gob wire form of Models: one flat struct with the field
// names every saved model bundle and adapt registry uses, so files
// written before the Params/Models split still decode.
type Bundle struct {
	Branches    []mbek.Branch
	Det         detect.Model
	LightNet    *nn.Net
	ContentNets map[feat.Kind]*nn.TwoTower
	LatDet      []*linreg.Model
	LatTrk      []*linreg.Model
	LatVar      []glm.VarAcc
	FailNets    []glm.Model
	LightNorm   *Standardizer
	HeavyNorm   map[feat.Kind]*Standardizer
	Sketch      map[feat.Kind][][]float64
	Ben         *BenTable
	LatBiasMS   []float64
	AccScale    float64
	AccBias     float64
	LatCPUAdj   float64
	FeatureSeed int64
}

// Bundle returns m's wire form. It aliases m's parameters and refit
// state rather than copying them.
func (m *Models) Bundle() *Bundle {
	return &Bundle{
		Branches: m.Branches, Det: m.Det,
		LightNet: m.LightNet, ContentNets: m.ContentNets,
		LatDet: m.LatDet, LatTrk: m.LatTrk, LatVar: m.LatVar, FailNets: m.FailNets,
		LightNorm: m.LightNorm, HeavyNorm: m.HeavyNorm, Sketch: m.Sketch, Ben: m.Ben,
		LatBiasMS: m.LatBiasMS, AccScale: m.AccScale, AccBias: m.AccBias, LatCPUAdj: m.LatCPUAdj,
		FeatureSeed: m.FeatureSeed,
	}
}

// Models checks that every shape a predictor indexes agrees with the
// branch space and the feature dimensions, then splits the bundle into
// fresh shared Params and the per-stream part. The result aliases b,
// except that each sketch is copied into one contiguous array, the
// layout Train gives it.
func (b *Bundle) Models() (*Models, error) {
	if err := b.validate(); err != nil {
		return nil, fmt.Errorf("sched: invalid model bundle: %w", err)
	}
	sketch := make(map[feat.Kind][][]float64, len(b.Sketch))
	for k, rows := range b.Sketch {
		if len(rows) == 0 {
			continue
		}
		packed := contiguousRows(len(rows), len(rows[0]))
		for i, r := range rows {
			copy(packed[i], r)
		}
		sketch[k] = packed
	}
	return &Models{
		Params: &Params{
			Branches: b.Branches, Det: b.Det,
			LightNet: b.LightNet, ContentNets: b.ContentNets, FailNets: b.FailNets,
			LightNorm: b.LightNorm, HeavyNorm: b.HeavyNorm, Sketch: sketch, Ben: b.Ben,
			FeatureSeed: b.FeatureSeed,
		},
		LatDet: b.LatDet, LatTrk: b.LatTrk, LatVar: b.LatVar,
		LatBiasMS: b.LatBiasMS, AccScale: b.AccScale, AccBias: b.AccBias, LatCPUAdj: b.LatCPUAdj,
	}, nil
}

// Save serializes the models with encoding/gob in the Bundle wire form.
// The predictor workspace is not part of it.
func (m *Models) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(m.Bundle()); err != nil {
		return fmt.Errorf("sched: encode models: %w", err)
	}
	return nil
}

// Load deserializes models previously written by Save and validates
// their shapes, so a malformed bundle fails here with the offending
// field named instead of panicking inside a prediction mid-run.
func Load(r io.Reader) (*Models, error) {
	var b Bundle
	if err := gob.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("sched: decode models: %w", err)
	}
	return b.Models()
}

// SaveFile writes the models to path.
func (m *Models) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sched: %w", err)
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads models from path.
func LoadFile(path string) (*Models, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Clone returns a copy of m for one stream: it shares m's read-only
// Params (weights, standardizers, sketches, benefit table and feature
// extractor) and deep-copies only the state online adaptation refits,
// so refitting the clone never touches m or any sibling clone. The
// clone builds its own predictor workspace on first use. Clone never
// fails; the error result is always nil.
func (m *Models) Clone() (*Models, error) {
	c := &Models{
		Params:    m.Params,
		LatVar:    append([]glm.VarAcc(nil), m.LatVar...),
		LatBiasMS: append([]float64(nil), m.LatBiasMS...),
		AccScale:  m.AccScale,
		AccBias:   m.AccBias,
		LatCPUAdj: m.LatCPUAdj,
	}
	c.LatDet, c.LatTrk = cloneRegressions(m.LatDet, m.LatTrk)
	return c, nil
}

// cloneRegressions deep-copies the per-branch latency regressions into
// one backing array each for the pointers, the models and their
// coefficients, so a clone's allocation count does not grow with the
// branch count or the feature width.
func cloneRegressions(det, trk []*linreg.Model) (detOut, trkOut []*linreg.Model) {
	n := len(det) + len(trk)
	if n == 0 {
		return nil, nil
	}
	at := func(i int) *linreg.Model {
		if i < len(det) {
			return det[i]
		}
		return trk[i-len(det)]
	}
	coefs := 0
	for i := 0; i < n; i++ {
		coefs += len(at(i).Coef)
	}
	ptrs := make([]*linreg.Model, n)
	models := make([]linreg.Model, n)
	buf := make([]float64, coefs)
	for i := 0; i < n; i++ {
		src := at(i)
		k := len(src.Coef)
		models[i] = linreg.Model{Coef: buf[:k:k], Intercept: src.Intercept}
		copy(models[i].Coef, src.Coef)
		buf = buf[k:]
		ptrs[i] = &models[i]
	}
	nd := len(det)
	return ptrs[:nd:nd], ptrs[nd:]
}
