// Package perf is the continuous performance harness: a deterministic
// driver that sweeps a configuration matrix over the serving and fleet
// engines and emits a comparable JSON report (BENCH_perf.json) of
// wall-clock per-GoF latency, simulated-GoF throughput, and allocs/op +
// bytes/op on the scheduler decision path and the per-stream model
// clone, plus the regression-gate
// compare logic CI runs against the committed baseline.
//
// Every number in a report is either *simulated* (Sim, Mem) — a pure
// function of the seed, identical across runs and machines — or
// *timing* (Wall, CalibMS, Env), which varies with hardware and load.
// The split is structural so the gate can be strict where determinism
// allows (allocs/op must never grow) and tolerant where it does not
// (wall time is compared calibration-normalized with a soft tolerance).
package perf

import (
	"encoding/json"
	"fmt"
)

// Schema identifies the report layout; bump when fields change meaning.
const Schema = "lrperf/v1"

// Cell is one point of the configuration matrix: an engine shape
// ({streams, boards, contention, faults, adapt, admission}) at a scale.
type Cell struct {
	Name       string  `json:"name"`
	Scale      string  `json:"scale"` // "small" | "medium"
	Streams    int     `json:"streams"`
	Boards     int     `json:"boards"` // 1 = serve engine, >1 = fleet
	Frames     int     `json:"frames"` // per stream
	Contention float64 `json:"contention"`
	Faults     bool    `json:"faults"`
	Adapt      bool    `json:"adapt"`
	Admission  string  `json:"admission"` // "fifo" | "wfq"
	// RiskQ, when positive, turns on probabilistic admission at that
	// quantile for the cell — the decision path then also derives
	// per-branch quantile factors and failure probabilities, which must
	// stay allocation-free like the rest of the hot path.
	RiskQ float64 `json:"risk_q,omitempty"`
}

// SimStats are simulated-domain results: identical for identical seeds.
type SimStats struct {
	Streams    int     `json:"streams"`
	Frames     int     `json:"frames"` // frames actually served
	GoFs       int     `json:"gofs"`   // scheduler decisions recorded
	Rounds     int     `json:"rounds"`
	MeanGoFMS  float64 `json:"mean_gof_ms"` // realized GoF-avg per-frame latency
	P99GoFMS   float64 `json:"p99_gof_ms"`
	AttainRate float64 `json:"attain_rate"`
}

// MemStats are allocation counts on the hot paths, measured with
// runtime.ReadMemStats deltas on a single goroutine (GOMAXPROCS(1), GC
// quiesced) so they are exact and reproducible. DecisionAllocs is the
// gated number: allocations per scheduler Decide+SetBranch on a warm
// pipeline. CloneAllocs, also gated, is one sched.Models.Clone — the
// per-stream admission cost. GoFAllocs covers the full harness step
// (kernel execution, feedback, adapter) for context.
type MemStats struct {
	DecisionAllocs uint64 `json:"allocs_per_decision"`
	DecisionBytes  uint64 `json:"bytes_per_decision"`
	CloneAllocs    uint64 `json:"allocs_per_clone"`
	CloneBytes     uint64 `json:"bytes_per_clone"`
	GoFAllocs      uint64 `json:"allocs_per_gof"`
	GoFBytes       uint64 `json:"bytes_per_gof"`
}

// WallStats are wall-clock timings: machine-dependent, never gated
// except through the calibration-normalized soft tolerance.
type WallStats struct {
	EngineMS   float64 `json:"engine_ms"`   // full engine run (Submit..Drain/Run)
	GoFMeanMS  float64 `json:"gof_mean_ms"` // wall time per harness GoF step
	GoFP50MS   float64 `json:"gof_p50_ms"`
	GoFP99MS   float64 `json:"gof_p99_ms"`
	GoFsPerSec float64 `json:"gofs_per_sec"` // simulated GoFs per wall second
}

// CellResult is one matrix cell's full measurement.
type CellResult struct {
	Cell Cell      `json:"cell"`
	Sim  SimStats  `json:"sim"`
	Mem  MemStats  `json:"mem"`
	Wall WallStats `json:"wall"`
}

// Env records the machine the timing numbers came from.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// CampaignCell records one cell's before/after allocation numbers from
// an optimization campaign (produced by lrperf -campaign).
type CampaignCell struct {
	Name         string  `json:"name"`
	AllocsBefore uint64  `json:"allocs_per_decision_before"`
	AllocsAfter  uint64  `json:"allocs_per_decision_after"`
	BytesBefore  uint64  `json:"bytes_per_decision_before"`
	BytesAfter   uint64  `json:"bytes_per_decision_after"`
	Reduction    float64 `json:"reduction"` // 1 - after/before
}

// Campaign is the before/after record committed alongside a baseline
// refresh so the trajectory of the hot path stays in the repo.
type Campaign struct {
	Note  string         `json:"note,omitempty"`
	Cells []CampaignCell `json:"cells"`
}

// Report is the full lrperf output.
type Report struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	// CalibMS is the wall time of a fixed deterministic CPU spin on this
	// machine; the wall gate compares GoFMeanMS/CalibMS ratios so a
	// baseline from one machine transfers to another.
	CalibMS  float64      `json:"calib_ms"`
	Env      Env          `json:"env"`
	Cells    []CellResult `json:"cells"`
	Campaign *Campaign    `json:"campaign,omitempty"`
}

// StripTiming zeroes every machine-dependent field in place, leaving
// only the deterministic simulated metrics — the form the fixed-seed
// determinism test diffs.
func (r *Report) StripTiming() {
	r.CalibMS = 0
	r.Env = Env{}
	for i := range r.Cells {
		r.Cells[i].Wall = WallStats{}
	}
}

// Cell returns the named cell result, or nil.
func (r *Report) Cell(name string) *CellResult {
	for i := range r.Cells {
		if r.Cells[i].Cell.Name == name {
			return &r.Cells[i]
		}
	}
	return nil
}

// Marshal renders the report as stable, indented JSON.
func (r *Report) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Unmarshal parses a report and checks its schema tag.
func Unmarshal(b []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("perf: parse report: %w", err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("perf: report schema %q, want %q", r.Schema, Schema)
	}
	return &r, nil
}

// Matrix returns the cells for a scale: "small", "medium", or "all".
// Each scale covers every matrix dimension — FIFO vs WFQ admission,
// contention, faults, adaptation, single board vs fleet — so a hot-path
// regression in any subsystem lands in at least one cell.
func Matrix(scale string) ([]Cell, error) {
	switch scale {
	case "small":
		return matrixAt("small", 4, 60, 2, 6), nil
	case "medium":
		return matrixAt("medium", 8, 120, 3, 9), nil
	case "all":
		return append(matrixAt("small", 4, 60, 2, 6),
			matrixAt("medium", 8, 120, 3, 9)...), nil
	default:
		return nil, fmt.Errorf("perf: unknown scale %q (small|medium|all)", scale)
	}
}

func matrixAt(scale string, streams, frames, fleetBoards, fleetStreams int) []Cell {
	return []Cell{
		{Name: "serve_fifo/" + scale, Scale: scale, Streams: streams, Boards: 1,
			Frames: frames, Contention: 0.1, Admission: "fifo"},
		{Name: "serve_wfq_contend/" + scale, Scale: scale, Streams: streams, Boards: 1,
			Frames: frames, Contention: 0.3, Admission: "wfq"},
		{Name: "serve_faults/" + scale, Scale: scale, Streams: streams, Boards: 1,
			Frames: frames, Contention: 0.1, Faults: true, Admission: "fifo"},
		{Name: "serve_adapt/" + scale, Scale: scale, Streams: streams, Boards: 1,
			Frames: frames, Contention: 0.1, Adapt: true, Admission: "fifo"},
		{Name: "serve_risk/" + scale, Scale: scale, Streams: streams, Boards: 1,
			Frames: frames, Contention: 0.3, Admission: "wfq", RiskQ: 0.95},
		{Name: "fleet_mixed/" + scale, Scale: scale, Streams: fleetStreams, Boards: fleetBoards,
			Frames: frames, Contention: 0.2, Admission: "wfq"},
	}
}

// FilterCells keeps cells whose name contains the substring (empty
// keeps all).
func FilterCells(cells []Cell, substr string) []Cell {
	if substr == "" {
		return cells
	}
	out := cells[:0:0]
	for _, c := range cells {
		if containsFold(c.Name, substr) {
			out = append(out, c)
		}
	}
	return out
}

func containsFold(s, sub string) bool {
	// simple case-sensitive contains; cell names are lowercase already
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
