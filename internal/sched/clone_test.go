package sched

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"sync"
	"testing"

	"litereconfig/internal/detect"
	"litereconfig/internal/feat"
	"litereconfig/internal/glm"
	"litereconfig/internal/linreg"
	"litereconfig/internal/mbek"
	"litereconfig/internal/nn"
	"litereconfig/internal/track"
)

// refitLikeAdapter mutates every piece of refit state the way the online
// adapter does: RLS-moved latency coefficients, per-branch bias, forgotten
// and extended variance accumulators, accuracy recalibration and the
// global CPU-side multiplier.
func refitLikeAdapter(m *Models) {
	for bi, lr := range m.LatDet {
		for i := range lr.Coef {
			lr.Coef[i] += 0.01 * float64(bi+1) * float64(i+1)
		}
		lr.Intercept += 0.5 * float64(bi)
	}
	for bi, lr := range m.LatTrk {
		lr.Intercept -= 0.25 * float64(bi)
	}
	m.LatBiasMS = make([]float64, len(m.Branches))
	for i := range m.LatBiasMS {
		m.LatBiasMS[i] = 0.125 * float64(i)
	}
	for bi := range m.LatVar {
		m.LatVar[bi].Forget(0.98)
		m.LatVar[bi].Add(0.0625 * float64(bi))
	}
	m.AccScale = 0.9375
	m.AccBias = 0.015625
	m.LatCPUAdj = 1.8125
}

// predictionBits renders every predictor's output for the samples as
// float bits: light, content per heavy kind, the full and a two-kind
// set, and per branch latency, bias, quantiles and failure probability.
func predictionBits(m *Models, samples []Sample) []uint64 {
	var out []uint64
	add := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	kinds := feat.HeavyKinds()
	for _, s := range samples {
		add(m.PredictAccuracyLight(s.Light)...)
		for _, k := range kinds {
			add(m.PredictAccuracyContent(k, s.Light, s.Heavy[k])...)
		}
		add(m.PredictAccuracySet(kinds, s.Light, s.Heavy)...)
		add(m.PredictAccuracySet(kinds[:2], s.Light, s.Heavy)...)
		for bi := range m.Branches {
			det, trk := m.PredictLatency(bi, s.Light)
			add(det, trk, m.LatencyBiasMS(bi), m.LatLogStd(bi))
			for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
				add(m.PredictQuantile(bi, s.Light, q))
			}
			add(m.PredictFailProb(bi, s.Light))
		}
		add(m.CPUAdjFactor())
	}
	return out
}

func sameBits(t *testing.T, what string, a, b []uint64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d predictions", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: prediction %d differs: %v vs %v", what, i,
				math.Float64frombits(a[i]), math.Float64frombits(b[i]))
		}
	}
}

func saveLoad(t *testing.T, m *Models) *Models {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return m2
}

// A clone must predict bit-identically to a full gob round trip, on the
// trained bundle and on a refit one: the clone is what every admitted
// stream runs, the round trip what the registry and -models files hold.
func TestCloneMatchesSaveLoad(t *testing.T) {
	ds, orig := fixture(t)
	samples := ds.Samples[:3]
	refit, err := orig.Clone()
	if err != nil {
		t.Fatal(err)
	}
	refitLikeAdapter(refit)
	for _, tc := range []struct {
		name string
		m    *Models
	}{{"trained", orig}, {"refit", refit}} {
		clone, err := tc.m.Clone()
		if err != nil {
			t.Fatal(err)
		}
		want := predictionBits(tc.m, samples)
		sameBits(t, tc.name+" clone", predictionBits(clone, samples), want)
		sameBits(t, tc.name+" save/load", predictionBits(saveLoad(t, tc.m), samples), want)
		if clone.Params != tc.m.Params {
			t.Fatalf("%s: clone does not share the source's parameters", tc.name)
		}
	}
}

// Refitting one clone leaves its source and a sibling clone bit-identical.
func TestCloneRefitIsolated(t *testing.T) {
	ds, orig := fixture(t)
	samples := ds.Samples[:3]
	before := predictionBits(orig, samples)
	a, err := orig.Clone()
	if err != nil {
		t.Fatal(err)
	}
	b, err := orig.Clone()
	if err != nil {
		t.Fatal(err)
	}
	refitLikeAdapter(a)
	sameBits(t, "source after refitting a clone", predictionBits(orig, samples), before)
	sameBits(t, "sibling after refitting a clone", predictionBits(b, samples), before)
	if orig.AccScale != 0 || orig.LatCPUAdj != 0 || len(orig.LatBiasMS) != 0 {
		t.Fatal("refitting the clone mutated the source's calibration state")
	}
}

// Clones of one bundle predict concurrently — the shared parameters and
// extractor are read-only, each clone's workspace is its own. Run under
// -race.
func TestConcurrentClonePredict(t *testing.T) {
	ds, orig := fixture(t)
	samples := ds.Samples[:2]
	want := predictionBits(orig, samples)
	base, err := orig.Clone()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	exs := make([]*feat.Extractor, workers)
	errs := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := base.Clone()
			if err != nil {
				errs[w] = err.Error()
				return
			}
			exs[w] = c.Extractor()
			for rep := 0; rep < 3; rep++ {
				got := predictionBits(c, samples)
				for i := range want {
					if got[i] != want[i] {
						errs[w] = "prediction differs from the serial reference"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Fatalf("worker %d: %s", w, e)
		}
		if exs[w] != exs[0] {
			t.Fatalf("worker %d got its own extractor; clones must share one", w)
		}
	}
}

// A bundle written by the flat Models layout every earlier release saved
// still loads, and predicts bit-identically to the bundle it came from.
func TestLoadFlatModelsLayout(t *testing.T) {
	ds, orig := fixture(t)
	m, err := orig.Clone()
	if err != nil {
		t.Fatal(err)
	}
	refitLikeAdapter(m)

	// The on-disk layout before the Params split: one flat struct, saved
	// under the type name Models.
	type Models struct {
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
	flat := &Models{
		Branches: m.Branches, Det: m.Det, LightNet: m.LightNet, ContentNets: m.ContentNets,
		LatDet: m.LatDet, LatTrk: m.LatTrk, LatVar: m.LatVar, FailNets: m.FailNets,
		LightNorm: m.LightNorm, HeavyNorm: m.HeavyNorm, Sketch: m.Sketch, Ben: m.Ben,
		LatBiasMS: m.LatBiasMS, AccScale: m.AccScale, AccBias: m.AccBias, LatCPUAdj: m.LatCPUAdj,
		FeatureSeed: m.FeatureSeed,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(flat); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	samples := ds.Samples[:3]
	sameBits(t, "flat-layout bundle", predictionBits(loaded, samples), predictionBits(m, samples))
	if loaded.FeatureSeed != m.FeatureSeed {
		t.Fatalf("feature seed %d, want %d", loaded.FeatureSeed, m.FeatureSeed)
	}
}

// handBuiltBundle is a minimal well-formed bundle: two branches and tiny
// networks. Its widths still follow the feature specs, so it is kept
// small on the wire instead: standardizers of mean 0 and deviation 2
// and zero tower inputs weights encode as one byte per value, and only
// CPoP, the narrowest heavy feature, carries a sketch.
func handBuiltBundle() *Bundle {
	branches := []mbek.Branch{
		{Shape: 224, NProp: 1, GoF: 1, Tracker: track.KCF, DS: 1},
		{Shape: 576, NProp: 100, GoF: 4, Tracker: track.KCF, DS: 1},
	}
	nb := len(branches)
	light := feat.SpecOf(feat.Light).Dim
	norm := func(dim int) *Standardizer {
		s := &Standardizer{Mean: make([]float64, dim), Std: make([]float64, dim)}
		for i := range s.Std {
			s.Std[i] = 2
		}
		return s
	}
	b := &Bundle{
		Branches:    branches,
		Det:         detect.FasterRCNN,
		LightNet:    nn.NewNet(1, light, 3, nb),
		ContentNets: map[feat.Kind]*nn.TwoTower{},
		LightNorm:   norm(light),
		HeavyNorm:   map[feat.Kind]*Standardizer{},
		Sketch:      map[feat.Kind][][]float64{},
		LatVar:      make([]glm.VarAcc, nb),
		FailNets:    make([]glm.Model, nb),
		Ben:         &BenTable{BudgetsMS: []float64{20, 50}},
		FeatureSeed: 1,
	}
	for _, k := range feat.HeavyKinds() {
		dim := feat.SpecOf(k).Dim
		b.HeavyNorm[k] = norm(dim)
		in := dim
		if k == feat.CPoP {
			in = 2
			rows := make([][]float64, dim)
			for i := range rows {
				rows[i] = []float64{0.5, -0.5}
			}
			b.Sketch[k] = rows
		}
		t := nn.NewTwoTower(nn.TwoTowerConfig{
			InA: light, InB: in, ProjDim: 1, Hidden: []int{3}, Out: nb, Seed: int64(k)})
		if in == dim {
			clear(t.ProjB.W)
		}
		b.ContentNets[k] = t
	}
	for bi := 0; bi < nb; bi++ {
		b.LatDet = append(b.LatDet, &linreg.Model{Coef: []float64{1, 2, 3, 4}, Intercept: 5})
		b.LatTrk = append(b.LatTrk, &linreg.Model{Coef: []float64{0.5, 0, 0, 1}, Intercept: 1})
		b.LatVar[bi].Add(0.1)
		b.LatVar[bi].Add(-0.2)
	}
	b.FailNets[1] = glm.Model{Coef: []float64{0.1, 0, 0, -0.3}, Intercept: -1,
		Link: glm.LinkLogit, Family: glm.Binomial, N: 8}
	for range b.Ben.BudgetsMS {
		b.Ben.Gain = append(b.Ben.Gain, make([]float64, feat.NumKinds))
	}
	return b
}

func encodeBundle(t testing.TB, b *Bundle) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Load rejects every shape a prediction would otherwise panic on, and
// names the field.
func TestLoadRejectsMalformedShapes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(b *Bundle)
		field  string
	}{
		{"light layer weights", func(b *Bundle) { b.LightNet.Layers[0].W = b.LightNet.Layers[0].W[1:] }, "LightNet layer 0"},
		{"content layer weights", func(b *Bundle) {
			l := b.ContentNets[feat.HOG].Trunk.Layers[1]
			l.W = append(l.W, 0)
		}, "ContentNets[hog].Trunk layer 1"},
		{"light net output width", func(b *Bundle) { b.Branches = append(b.Branches, b.Branches[0]) }, "LightNet outputs"},
		{"content net output width", func(b *Bundle) {
			b.ContentNets[feat.CPoP] = nn.NewTwoTower(nn.TwoTowerConfig{
				InA: 4, InB: 2, ProjDim: 1, Hidden: []int{3}, Out: 3, Seed: 1})
		}, "ContentNets[cpop].Trunk outputs"},
		{"LatDet length", func(b *Bundle) { b.LatDet = b.LatDet[:1] }, "LatDet"},
		{"LatTrk length", func(b *Bundle) { b.LatTrk = append(b.LatTrk, b.LatTrk[0]) }, "LatTrk"},
		{"LatDet coefficients", func(b *Bundle) { b.LatDet[1].Coef = b.LatDet[1].Coef[:3] }, "LatDet[1]"},
		{"LatVar length", func(b *Bundle) { b.LatVar = b.LatVar[:1] }, "LatVar"},
		{"FailNets length", func(b *Bundle) { b.FailNets = append(b.FailNets, glm.Model{}) }, "FailNets"},
		{"sketch rows", func(b *Bundle) { b.Sketch[feat.CPoP] = b.Sketch[feat.CPoP][:10] }, "Sketch[cpop]"},
		{"heavy standardizer", func(b *Bundle) { b.HeavyNorm[feat.HoC].Std = b.HeavyNorm[feat.HoC].Std[:5] }, "HeavyNorm[hoc]"},
		{"missing content net", func(b *Bundle) { delete(b.ContentNets, feat.MobileNetV2) }, "ContentNets[mobilenetv2]"},
		{"benefit row", func(b *Bundle) { b.Ben.Gain[1] = b.Ben.Gain[1][:2] }, "Ben.Gain[1]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := handBuiltBundle()
			tc.mutate(b)
			_, err := Load(bytes.NewReader(encodeBundle(t, b)))
			if err == nil {
				t.Fatal("malformed bundle loaded")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name %q", err, tc.field)
			}
		})
	}

	// Empty risk state is a pre-risk bundle, not a malformed one.
	b := handBuiltBundle()
	b.LatVar, b.FailNets = nil, nil
	if _, err := Load(bytes.NewReader(encodeBundle(t, b))); err != nil {
		t.Fatalf("pre-risk bundle rejected: %v", err)
	}
}

// exercisePredictors runs every predictor on well-formed inputs.
func exercisePredictors(m *Models) {
	light := make([]float64, feat.SpecOf(feat.Light).Dim)
	heavy := map[feat.Kind][]float64{}
	kinds := feat.HeavyKinds()
	for _, k := range kinds {
		heavy[k] = make([]float64, feat.SpecOf(k).Dim)
		m.PredictAccuracyContent(k, light, heavy[k])
	}
	m.PredictAccuracyLight(light)
	m.PredictAccuracySet(kinds, light, heavy)
	for bi := range m.Branches {
		m.PredictLatency(bi, light)
		m.PredictQuantile(bi, light, 0.95)
		m.PredictFailProb(bi, light)
		m.LatencyBiasMS(bi)
	}
	for _, budget := range []float64{0, 33.3, 1e9} {
		m.Ben.SetBenefit(kinds, budget)
	}
}

// FuzzLoad: whatever bytes arrive as a model bundle, Load either fails
// or returns models every predictor can run on — and so can a clone.
func FuzzLoad(f *testing.F) {
	f.Add(encodeBundle(f, handBuiltBundle()))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		exercisePredictors(m)
		c, err := m.Clone()
		if err != nil {
			t.Fatal(err)
		}
		exercisePredictors(c)
	})
}
