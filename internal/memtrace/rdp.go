package memtrace

import "math"

// Ramer–Douglas–Peucker polyline simplification, used by the paper's trace
// pipeline to shrink per-job memory-usage traces before simulation.
//
// Because the x axis is time (seconds) and the y axis memory (MB), the usual
// perpendicular point-to-segment distance would mix units; we use the
// vertical deviation, the standard choice for time series, and document the
// tolerance in MB.

// RDP returns a simplified copy of the trace in which every removed point
// deviates vertically by at most epsMB from the line joining the retained
// neighbours. The first and last points are always kept. epsMB <= 0 returns
// the trace unchanged.
func (tr *Trace) RDP(epsMB float64) *Trace {
	if epsMB <= 0 || len(tr.pts) <= 2 {
		return tr
	}
	keep := make([]bool, len(tr.pts))
	keep[0], keep[len(tr.pts)-1] = true, true
	rdpMark(tr.pts, 0, len(tr.pts)-1, epsMB, keep)
	out := make([]Point, 0, len(tr.pts))
	for i, k := range keep {
		if k {
			out = append(out, tr.pts[i])
		}
	}
	return &Trace{pts: out}
}

// rdpMark marks the points to keep between indices lo and hi (exclusive
// interior), recursing on the point of maximum vertical deviation. An
// explicit stack avoids deep recursion on very long traces.
//
// The deviation that picks the point is the division-per-point expression
// below; a cheaper one with a precomputed slope filters out the points
// that cannot beat the current worst. The two differ by far less than
// bound (DESIGN.md, "Trace generation"), so every point the exact scan
// would take as a new worst is still evaluated exactly, and the kept set,
// first-occurrence tie-break included, is the exact scan's.
func rdpMark(pts []Point, lo, hi int, eps float64, keep []bool) {
	var peak float64
	for _, p := range pts[lo : hi+1] {
		if m := math.Abs(float64(p.MB)); m > peak {
			peak = m
		}
	}
	type span struct{ lo, hi int }
	stack := []span{{lo, hi}}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.hi-s.lo < 2 {
			continue
		}
		a, b := pts[s.lo], pts[s.hi]
		dt := b.T - a.T
		aMB := float64(a.MB)
		dMB := float64(b.MB) - float64(a.MB)
		slope := dMB / dt
		bound := 0x1p-40 * (math.Abs(aMB) + math.Abs(float64(b.MB)) + peak)
		if math.Abs(dMB)*dt > 0x1p1000 {
			// dMB·u may overflow in the exact expression: no filter.
			bound = math.Inf(1)
		}
		var worst float64
		cut := worst - bound
		worstIdx := -1
		for i := s.lo + 1; i < s.hi; i++ {
			mb := float64(pts[i].MB)
			u := pts[i].T - a.T
			if math.Abs(mb-(aMB+slope*u)) <= cut {
				continue
			}
			// Interpolated value of the chord at pts[i].T.
			y := float64(a.MB) + (float64(b.MB)-float64(a.MB))*(pts[i].T-a.T)/dt
			if d := math.Abs(mb - y); d > worst {
				worst = d
				worstIdx = i
				cut = worst - bound
			}
		}
		if worst > eps && worstIdx >= 0 {
			keep[worstIdx] = true
			stack = append(stack, span{s.lo, worstIdx}, span{worstIdx, s.hi})
		}
	}
}
