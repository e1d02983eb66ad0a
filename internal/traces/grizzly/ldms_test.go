package grizzly

import (
	"errors"
	"math"
	"testing"

	"dismem/internal/memtrace"
)

// tinyWeek builds a small week suitable for record-level tests.
func tinyWeek(t *testing.T, nodes int) *Week {
	t.Helper()
	d := Generate(Params{Nodes: nodes, WeekCount: 1, MeanUtil: 0.5}, 11)
	return &d.Weeks[0]
}

func TestPlaceAssignsAllJobs(t *testing.T) {
	const nodes = 16
	w := tinyWeek(t, nodes)
	placed, err := w.Place(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != len(w.Jobs) {
		t.Fatalf("placed %d of %d jobs", len(placed), len(w.Jobs))
	}
	for _, pj := range placed {
		if len(pj.Nodes) != pj.Job.Nodes {
			t.Fatalf("job %d: %d nodes assigned, want %d", pj.Job.ID, len(pj.Nodes), pj.Job.Nodes)
		}
		for _, n := range pj.Nodes {
			if n < 0 || n >= nodes {
				t.Fatalf("job %d: node %d out of range", pj.Job.ID, n)
			}
		}
		if pj.Start < 0 {
			t.Fatalf("job %d: negative start", pj.Job.ID)
		}
	}
}

func TestPlaceNoOverlapPerNode(t *testing.T) {
	const nodes = 16
	w := tinyWeek(t, nodes)
	placed, err := w.Place(nodes)
	if err != nil {
		t.Fatal(err)
	}
	type span struct{ s, e float64 }
	perNode := map[int][]span{}
	for _, pj := range placed {
		for _, n := range pj.Nodes {
			perNode[n] = append(perNode[n], span{pj.Start, pj.End()})
		}
	}
	for n, spans := range perNode {
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.s < b.e && b.s < a.e {
					t.Fatalf("node %d: overlapping jobs [%g,%g) and [%g,%g)", n, a.s, a.e, b.s, b.e)
				}
			}
		}
	}
}

func TestPlaceRejectsOversizedJob(t *testing.T) {
	w := tinyWeek(t, 16)
	if _, err := w.Place(2); !errors.Is(err, ErrTooFewNodes) {
		// Only fails if the week actually has a >2-node job, which the
		// generator guarantees with overwhelming probability; tolerate
		// the alternative.
		if err != nil {
			t.Fatalf("err = %v, want ErrTooFewNodes", err)
		}
		big := false
		for i := range w.Jobs {
			if w.Jobs[i].Nodes > 2 {
				big = true
			}
		}
		if big {
			t.Fatal("oversized job accepted")
		}
	}
}

func TestEmitRecordsStream(t *testing.T) {
	const nodes = 8
	w := tinyWeek(t, nodes)
	placed, err := w.Place(nodes)
	if err != nil {
		t.Fatal(err)
	}
	const interval = 600.0
	const horizon = 6 * 3600.0
	var count, busy int
	var lastT float64
	var lastNode = -1
	err = EmitRecords(placed, nodes, interval, horizon, func(r Record) error {
		count++
		if r.TimeSec < lastT {
			t.Fatal("records not time-ordered")
		}
		if r.TimeSec == lastT && r.Node <= lastNode && count > 1 && lastNode != nodes-1 {
			t.Fatal("records not node-ordered within a tick")
		}
		lastT, lastNode = r.TimeSec, r.Node
		if r.ActiveMB+r.FreeMB != NodeMemMB {
			t.Fatalf("record accounting broken: %+v", r)
		}
		if r.JobID != 0 {
			busy++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantTicks := int(math.Ceil(horizon / interval))
	if count != wantTicks*nodes {
		t.Fatalf("records = %d, want %d", count, wantTicks*nodes)
	}
	if busy == 0 {
		t.Fatal("no busy records in a half-utilised week")
	}
}

func TestEmitRecordsValidation(t *testing.T) {
	if err := EmitRecords(nil, 4, 0, 100, func(Record) error { return nil }); err == nil {
		t.Fatal("zero interval accepted")
	}
	stop := errors.New("stop")
	err := EmitRecords(nil, 2, 10, 100, func(Record) error { return stop })
	if !errors.Is(err, stop) {
		t.Fatalf("emit error not propagated: %v", err)
	}
}

func TestReconstructJobsMatchesSource(t *testing.T) {
	// Hand-built jobs whose usage features are much wider than the
	// sampling interval, so reconstruction error is bounded by
	// granularity rather than aliasing.
	const nodes = 12
	mkTrace := func(levels ...int64) *memtrace.Trace {
		pts := make([]memtrace.Point, len(levels))
		for i, mb := range levels {
			pts[i] = memtrace.Point{T: float64(i) * 1200, MB: mb}
		}
		return memtrace.MustNew(pts)
	}
	w := &Week{Jobs: []TraceJob{
		{ID: 1, Nodes: 4, Duration: 4800, Usage: mkTrace(1000, 25000, 9000, 2000)},
		{ID: 2, Nodes: 1, Duration: 2400, Usage: mkTrace(500, 7000)},
		{ID: 3, Nodes: 8, Duration: 3600, Usage: mkTrace(12000, 60000, 12000)},
		{ID: 4, Nodes: 2, Duration: 7200, Usage: mkTrace(3000, 3000, 40000, 3000, 3000, 3000)},
	}}
	placed, err := w.Place(nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Horizon long enough to cover every job completely.
	horizon := 0.0
	for _, pj := range placed {
		if pj.End() > horizon {
			horizon = pj.End()
		}
	}
	const interval = 60.0
	var records []Record
	err = EmitRecords(placed, nodes, interval, horizon+interval, func(r Record) error {
		records = append(records, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	rec, err := ReconstructJobs(records, interval, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != len(w.Jobs) {
		t.Fatalf("reconstructed %d jobs, want %d", len(rec), len(w.Jobs))
	}
	source := map[int]*TraceJob{}
	for i := range w.Jobs {
		source[w.Jobs[i].ID] = &w.Jobs[i]
	}
	for i := range rec {
		r := &rec[i]
		s, ok := source[r.ID]
		if !ok {
			t.Fatalf("reconstructed unknown job %d", r.ID)
		}
		if r.Nodes != s.Nodes {
			t.Fatalf("job %d: nodes %d, want %d", r.ID, r.Nodes, s.Nodes)
		}
		// Duration recovered to sampling granularity.
		if math.Abs(r.Duration-s.Duration) > 2*interval {
			t.Fatalf("job %d: duration %g, want %g ± %g", r.ID, r.Duration, s.Duration, 2*interval)
		}
		// Peak memory within sampling + RDP tolerance.
		rp, sp := float64(r.PeakMB()), float64(s.PeakMB())
		if math.Abs(rp-sp) > 0.25*sp+1 {
			t.Fatalf("job %d: peak %g, want ≈%g", r.ID, rp, sp)
		}
	}
}

func TestReconstructJobsValidation(t *testing.T) {
	if _, err := ReconstructJobs(nil, 0, 0.02); err == nil {
		t.Fatal("zero interval accepted")
	}
	// Idle-only records reconstruct nothing.
	recs := []Record{{TimeSec: 0, Node: 0, JobID: 0, FreeMB: NodeMemMB}}
	jobs, err := ReconstructJobs(recs, 10, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("jobs from idle records: %d", len(jobs))
	}
}
