package perf

import (
	"fmt"
	"strings"
)

// GateResult is the outcome of comparing a fresh report against the
// committed baseline. Failures fail CI; Warnings do not.
type GateResult struct {
	Failures []string
	Warnings []string
}

// OK reports whether the gate passed.
func (g *GateResult) OK() bool { return len(g.Failures) == 0 }

// Summary renders the gate outcome as a human-readable block.
func (g *GateResult) Summary() string {
	var b strings.Builder
	for _, w := range g.Warnings {
		fmt.Fprintf(&b, "WARN  %s\n", w)
	}
	for _, f := range g.Failures {
		fmt.Fprintf(&b, "FAIL  %s\n", f)
	}
	if g.OK() {
		b.WriteString("perf gate: PASS\n")
	} else {
		fmt.Fprintf(&b, "perf gate: FAIL (%d regressions)\n", len(g.Failures))
	}
	return b.String()
}

// Compare gates cur against base:
//
//   - allocs/op on the decision path must not grow at all (hard fail —
//     the count is deterministic, so any growth is a real regression);
//   - bytes/op on the decision path must not grow (hard fail, same
//     reasoning);
//   - allocs and bytes per model clone must not grow (hard fail, same
//     reasoning: admission stays a copy of the refit state only);
//   - calibration-normalized per-GoF wall time may drift up to wallTol
//     (e.g. 0.15 = +15%; timing is noisy, so the tolerance is soft by
//     design and a negative wallTol disables the check entirely).
//
// Cells present in cur but missing from base warn (new cells are not
// gated until the baseline is refreshed); cells in base but absent from
// cur are ignored (a small-scale smoke run gates only the cells it ran).
func Compare(cur, base *Report, wallTol float64) *GateResult {
	g := &GateResult{}
	baseByName := map[string]*CellResult{}
	for i := range base.Cells {
		baseByName[base.Cells[i].Cell.Name] = &base.Cells[i]
	}
	for i := range cur.Cells {
		c := &cur.Cells[i]
		name := c.Cell.Name
		b, ok := baseByName[name]
		if !ok {
			g.Warnings = append(g.Warnings,
				fmt.Sprintf("%s: no baseline cell (refresh BENCH_perf.json to gate it)", name))
			continue
		}
		if c.Mem.DecisionAllocs > b.Mem.DecisionAllocs {
			g.Failures = append(g.Failures, fmt.Sprintf(
				"%s: allocs/decision %d > baseline %d",
				name, c.Mem.DecisionAllocs, b.Mem.DecisionAllocs))
		}
		if c.Mem.DecisionBytes > b.Mem.DecisionBytes {
			g.Failures = append(g.Failures, fmt.Sprintf(
				"%s: bytes/decision %d > baseline %d",
				name, c.Mem.DecisionBytes, b.Mem.DecisionBytes))
		}
		if c.Mem.CloneAllocs > b.Mem.CloneAllocs {
			g.Failures = append(g.Failures, fmt.Sprintf(
				"%s: allocs/clone %d > baseline %d",
				name, c.Mem.CloneAllocs, b.Mem.CloneAllocs))
		}
		if c.Mem.CloneBytes > b.Mem.CloneBytes {
			g.Failures = append(g.Failures, fmt.Sprintf(
				"%s: bytes/clone %d > baseline %d",
				name, c.Mem.CloneBytes, b.Mem.CloneBytes))
		}
		if wallTol >= 0 {
			switch {
			case cur.CalibMS <= 0 || base.CalibMS <= 0:
				g.Warnings = append(g.Warnings, fmt.Sprintf(
					"%s: missing calibration (cur %.3f, base %.3f), wall gate skipped",
					name, cur.CalibMS, base.CalibMS))
			case c.Wall.GoFP50MS <= 0 || b.Wall.GoFP50MS <= 0:
				g.Warnings = append(g.Warnings, fmt.Sprintf(
					"%s: missing wall sample (cur %.3f, base %.3f), wall gate skipped",
					name, c.Wall.GoFP50MS, b.Wall.GoFP50MS))
			default:
				// Gate on the median step, not the mean: a single GC
				// pause or scheduler hiccup in a short pass inflates the
				// mean by 20% but leaves the median untouched.
				curN := c.Wall.GoFP50MS / cur.CalibMS
				baseN := b.Wall.GoFP50MS / base.CalibMS
				if curN > baseN*(1+wallTol) {
					g.Failures = append(g.Failures, fmt.Sprintf(
						"%s: normalized GoF wall p50 %.4f > baseline %.4f +%.0f%% (raw %.3fms vs %.3fms, calib %.1f/%.1f)",
						name, curN, baseN, wallTol*100,
						c.Wall.GoFP50MS, b.Wall.GoFP50MS, cur.CalibMS, base.CalibMS))
				}
			}
		}
	}
	return g
}

// BuildCampaign derives the before/after record for every cell present
// in both reports, using the decision-path allocation numbers.
func BuildCampaign(before, after *Report, note string) *Campaign {
	camp := &Campaign{Note: note}
	for i := range after.Cells {
		a := &after.Cells[i]
		b := before.Cell(a.Cell.Name)
		if b == nil {
			continue
		}
		cc := CampaignCell{
			Name:         a.Cell.Name,
			AllocsBefore: b.Mem.DecisionAllocs,
			AllocsAfter:  a.Mem.DecisionAllocs,
			BytesBefore:  b.Mem.DecisionBytes,
			BytesAfter:   a.Mem.DecisionBytes,
		}
		if cc.AllocsBefore > 0 {
			cc.Reduction = round6(1 - float64(cc.AllocsAfter)/float64(cc.AllocsBefore))
		}
		camp.Cells = append(camp.Cells, cc)
	}
	return camp
}
