package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"
	"time"

	"dismem/internal/core"
	"dismem/internal/experiments"
	"dismem/internal/job"
)

func TestMedianAndMean(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(mean(nil)) {
		t.Error("empty median/mean should be NaN")
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

func TestPercentileTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	v, beyond := percentile(xs, 0.9)
	if v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v, _ := percentile(xs, 0.5); v != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", v)
	}
	if !tailOK(100, 0.9) {
		t.Error("p90 of 100 samples has 10 beyond: should be reportable")
	}
	if tailOK(99, 0.9) {
		t.Error("p90 of 99 samples has 9 beyond: should not be reportable")
	}
	if !tailOK(20, 0.5) || tailOK(19, 0.5) {
		t.Error("p50 needs 20 samples for 10 beyond")
	}
	if v, beyond := percentile([]float64{7}, 0.9); v != 7 || beyond != 0 {
		t.Errorf("single sample p90 = %v/%d", v, beyond)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "child", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "child", Start: ms(20), End: ms(50)}, // overlaps span 2
		{ID: 4, Parent: 1, Name: "late", Start: ms(90), End: ms(120)}, // runs past the parent
		{ID: 5, Parent: 2, Name: "leaf", Start: ms(12), End: ms(14)},
		{ID: 6, Parent: 1, Name: "open", Start: ms(60), End: -1}, // never closed
	}
	got := selfTimes(spans)
	want := map[string]spanTotal{
		"root":  {Self: 50 * time.Millisecond, Count: 1}, // 100 - union(10..50, 90..100)
		"child": {Self: 48 * time.Millisecond, Count: 2}, // (20 - 2) + 30
		"late":  {Self: 30 * time.Millisecond, Count: 1},
		"leaf":  {Self: 2 * time.Millisecond, Count: 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d names, want %d: %v", len(got), len(want), got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 1)
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Error("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("a", 0, 7)
	child := tr.begin("b", root, 7)
	tr.end(child)
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != root || s[0].Req != 7 || s[1].Req != 7 || s[0].End < s[1].End {
		t.Errorf("bad spans %+v", s)
	}
}

const sampleTop = `File: perfbench
Type: samples
Showing nodes accounting for 100, 100% of 100 total
      flat  flat%   sum%        cum   cum%
        20 20.00% 20.00%         30 30.00%  dismem/internal/core.(*Simulator).refreshAll
         5  5.00% 25.00%          5  5.00%  dismem/internal/core.(*Simulator).refreshAll.func1
         4  4.00% 29.00%          4  4.00%  dismem/internal/core.(*Simulator).refinish
        10 10.00% 39.00%         10 10.00%  dismem/internal/core.(*Simulator).bankDelta
         6  6.00% 45.00%          6  6.00%  dismem/internal/core.(*Simulator).easyPass
         3  3.00% 48.00%          3  3.00%  dismem/internal/core.(*Simulator).releases (inline)
         2  2.00% 50.00%          2  2.00%  dismem/internal/core.(*Simulator).onSubmit
        12 12.00% 62.00%         12 12.00%  dismem/internal/memtrace.(*Cursor).MeanIn
         8  8.00% 70.00%          8  8.00%  dismem/internal/traces/grizzly.ldmsTrace
         7  7.00% 77.00%          7  7.00%  dismem/internal/sweep.Submit[go.shape.struct { a.b int }].func1
         9  9.00% 86.00%          9  9.00%  runtime.mallocgc
         4  4.00% 90.00%          4  4.00%  internal/runtime/maps.h2 (inline)
         6  6.00% 96.00%          6  6.00%  sort.Slice
         4  4.00% 100.0%          4  4.00%  dismem/perfbench.main
`

func TestFoldTop(t *testing.T) {
	got, total, err := foldTop(sampleTop)
	if err != nil {
		t.Fatal(err)
	}
	if total != 100 {
		t.Errorf("total = %v, want 100", total)
	}
	want := map[string]float64{
		"core.refresh": 29, "core.bank": 10, "core.schedpass": 9, "core": 2,
		"memtrace": 12, "traces": 8, "sweep": 7, "runtime": 13, "other": 10,
	}
	for l, w := range want {
		if got[l] != w {
			t.Errorf("%s = %v, want %v", l, got[l], w)
		}
	}
	var sum float64
	for _, v := range got {
		sum += v
	}
	if sum != total {
		t.Errorf("layers sum to %v, total %v", sum, total)
	}
	if _, _, err := foldTop("no table here\n"); err == nil {
		t.Error("output without a table should be an error")
	}
}

func TestEveryLayerIsMapped(t *testing.T) {
	for _, l := range cpuLayers {
		found := false
		for _, d := range perLayer {
			found = found || d.name == l+".cpu_frac"
		}
		if !found {
			t.Errorf("layer %s has no metric", l)
		}
	}
}

func sampleResult() *core.Result {
	return &core.Result{
		Policy:    "dynamic",
		Makespan:  1234.5,
		Completed: 1,
		Records: []core.JobRecord{{
			Job: &job.Job{ID: 1}, Submit: 0, FirstStart: 1, LastStart: 1, Finish: 10,
			Attempts: []core.Attempt{{Start: 1, End: 10}},
		}},
	}
}

func TestDigestCheck(t *testing.T) {
	base := resultDigest(sampleResult())
	if base != resultDigest(sampleResult()) {
		t.Fatal("digest not deterministic")
	}
	bump := sampleResult()
	bump.Makespan = math.Nextafter(bump.Makespan, math.Inf(1)) // one ulp
	neg := sampleResult()
	neg.Records[0].Submit = math.Copysign(0, -1) // -0 == 0 but differs in bits
	att := sampleResult()
	att.Records[0].Attempts[0].End = 11
	for name, r := range map[string]*core.Result{"ulp": bump, "negzero": neg, "attempt": att} {
		if resultDigest(r) == base {
			t.Errorf("%s change not detected", name)
		}
	}
	r := refs{"w/0": base}
	if err := r.check("w/0", base); err != nil {
		t.Errorf("matching digest rejected: %v", err)
	}
	if err := r.check("w/0", resultDigest(bump)); err == nil {
		t.Error("mismatching digest accepted")
	}
	if err := r.check("w/1", base); err == nil {
		t.Error("missing reference accepted")
	}
}

func TestRefsCoverEveryInput(t *testing.T) {
	r, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range workloads {
		for in := 0; in < variants*w.basket; in++ {
			if len(r[refKey(name, in)]) != 64 {
				t.Errorf("no reference for %s", refKey(name, in))
			}
		}
	}
}

type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics this program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("%d workloads listed, %d implemented", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s not implemented", w.Name)
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d listed, %d printed", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: listed %s/%s, printed %s/%s", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestMixSchedule(t *testing.T) {
	seconds := loadBenchmarkJSON(t).RunSeconds
	reqs, err := mixSchedule(3, seconds*mixRate)
	if err != nil {
		t.Fatal(err)
	}
	short, err := mixSchedule(3, 50)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range short {
		if string(r.body) != string(reqs[i].body) || r.class != reqs[i].class || r.due != reqs[i].due {
			t.Fatalf("schedule not prefix-stable at %d", i)
		}
	}
	count := map[string]int{}
	seeds := map[int64]bool{}
	for _, r := range reqs {
		count[r.class]++
		switch r.class {
		case classScenario:
			if r.parent != -1 {
				t.Errorf("scenario %d has a parent", r.idx)
			}
			if seeds[r.spec.Trace.Seed] {
				t.Errorf("scenario %d reuses trace seed %d", r.idx, r.spec.Trace.Seed)
			}
			seeds[r.spec.Trace.Seed] = true
		default:
			p := reqs[r.parent]
			if p.class != classScenario || p.due > r.due-mixParentLag {
				t.Errorf("%s %d depends on request %d (%s, due %v)", r.class, r.idx, p.idx, p.class, p.due)
			}
			if r.class == classBranch {
				br, err := experiments.LoadBranchSpec(bytes.NewReader(r.body))
				if err != nil || br.ValidateFor(p.spec) != nil {
					t.Errorf("branch %d invalid for its parent", r.idx)
				}
			}
		}
	}
	// Every gated class needs 100 samples so its p90 has 10 beyond it.
	for _, c := range []string{classScenario, classBranch} {
		if !tailOK(count[c], 0.9) {
			t.Errorf("%d %s requests in %d s: p90 not reportable", count[c], c, seconds)
		}
	}
	if count[classHit] == 0 {
		t.Error("no repeat requests")
	}
}

// TestHeadDigest: a run's schedule digests to the same head as the
// recorded 10 s schedule, and a schedule too short to hold the head is
// refused rather than digested.
func TestHeadDigest(t *testing.T) {
	fake := func(reqs []*mixRequest) [][]byte {
		bodies := make([][]byte, len(reqs))
		for i := range bodies {
			bodies[i] = []byte(fmt.Sprint(i))
		}
		return bodies
	}
	rec, err := mixSchedule(3, 10*mixRate)
	if err != nil {
		t.Fatal(err)
	}
	run, err := mixSchedule(3, loadBenchmarkJSON(t).RunSeconds*mixRate)
	if err != nil {
		t.Fatal(err)
	}
	a, err := headDigest(rec, fake(rec))
	if err != nil {
		t.Fatal(err)
	}
	b, err := headDigest(run, fake(run))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("run head %s != recorded head %s", b, a)
	}
	short := rec[:refScenarios]
	if _, err := headDigest(short, fake(short)); err == nil {
		t.Error("a schedule without the head's branches was digested")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dismem/internal/core.(*Simulator).recontendDomains":       "core.refresh",
		"dismem/internal/core.(*Simulator).currentResources":       "core.schedpass",
		"dismem/internal/core.(*Simulator).conservativePass.func2": "core.schedpass",
		"dismem/internal/core.New":                                 "core",
		"dismem/internal/cluster.(*freeIndex).insertAt":            "cluster",
		"dismem/internal/server.RenderResult":                      "server",
		"dismem/internal/job.(*Job).Validate":                      "other",
		"runtime/internal/atomic.Load":                             "runtime",
		"gcWriteBarrier":                                           "runtime",
		"math.IsInf":                                               "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

// TestRefsFileCanonical checks that refs.json is exactly what -record
// writes, so re-recording changes only the digests that changed.
func TestRefsFileCanonical(t *testing.T) {
	r, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/refs.json"
	if err := writeRefs(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(refsJSON) {
		t.Error("refs.json differs from writeRefs output")
	}
}
