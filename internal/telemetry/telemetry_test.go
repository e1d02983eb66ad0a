package telemetry

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); k < KindCount; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := KindByName(name)
		if !ok || back != k {
			t.Fatalf("KindByName(%q) = %v, %v; want %v, true", name, back, ok, k)
		}
	}
	if _, ok := KindByName("nope"); ok {
		t.Fatal("KindByName accepted an unknown name")
	}
	if got := Kind(200).String(); got != "unknown" {
		t.Fatalf("out-of-range kind stringified as %q", got)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.SetNow(5)
	r.JobSubmit(1, false)
	r.JobStart(1, 2, 100, 50)
	r.JobEnd(1, "completed", 0)
	r.LeaseGrant(1, 2, 3, 64)
	r.LeaseAdjust(1, 2, -32, -16)
	r.LeaseRevoke(1, 2, 3, 64)
	r.BackfillHole(4, 99)
	r.BackfillPlace(4)
	r.PoolCheck(10, 100)
	r.Sample(1, 2, 3, 4, 5, 6)
	if r.Now() != 0 || r.SampleInterval() != 0 || r.TotalEvents() != 0 || r.Count(KindJobEnd) != 0 {
		t.Fatal("nil recorder leaked state")
	}
	if r.Series().Len() != 0 {
		t.Fatal("nil recorder returned samples")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNilRecorderEmitAllocates locks the zero-cost-when-disabled guarantee:
// the full emit surface on a nil recorder must not allocate.
func TestNilRecorderEmitAllocates(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		r.SetNow(1)
		r.JobSubmit(1, true)
		r.JobStart(1, 2, 100, 50)
		r.JobEnd(1, "completed", 1)
		r.LeaseGrant(1, 2, 3, 64)
		r.LeaseAdjust(1, 2, 32, 16)
		r.LeaseRevoke(1, 2, 3, 64)
		r.BackfillHole(4, 9)
		r.BackfillPlace(4)
		r.PoolCheck(10, 100)
		r.Sample(1, 2, 3, 4, 5, 6)
	})
	if allocs != 0 {
		t.Fatalf("nil-recorder emit path allocated %v times per run; want 0", allocs)
	}
}

func TestRecorderCountsAndClock(t *testing.T) {
	mem := &MemorySink{}
	r := New(Options{Sink: mem})
	r.SetNow(10)
	r.JobSubmit(1, false)
	r.SetNow(20)
	r.JobStart(1, 4, 1024, 256)
	r.LeaseGrant(1, 0, 9, 256)
	r.SetNow(30)
	r.JobEnd(1, "completed", 0)

	if got := r.TotalEvents(); got != 4 {
		t.Fatalf("TotalEvents = %d, want 4", got)
	}
	if r.Count(KindJobSubmit) != 1 || r.Count(KindLeaseGrant) != 1 {
		t.Fatal("per-kind counts wrong")
	}
	if r.Count(KindCount) != 0 {
		t.Fatal("out-of-range Count must be 0")
	}
	if len(mem.Events) != 4 {
		t.Fatalf("sink saw %d events, want 4", len(mem.Events))
	}
	if mem.Events[0].T != 10 || mem.Events[1].T != 20 || mem.Events[3].T != 30 {
		t.Fatalf("event timestamps wrong: %+v", mem.Events)
	}
	if e := mem.Events[1]; e.Node != 4 || e.MB != 1024 || e.Aux != 256 {
		t.Fatalf("JobStart fields wrong: %+v", e)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWatermarks(t *testing.T) {
	mem := &MemorySink{}
	r := New(Options{Sink: mem}) // default {50, 25, 10, 0}

	r.PoolCheck(100, 100) // full: nothing
	if len(mem.Events) != 0 {
		t.Fatalf("no watermark expected at full pool, got %d", len(mem.Events))
	}
	r.PoolCheck(50, 100) // exactly 50%: crosses 50
	if len(mem.Events) != 1 || mem.Events[0].Aux != 50 {
		t.Fatalf("want one 50%% crossing, got %+v", mem.Events)
	}
	r.PoolCheck(9, 100) // plunge: crosses 25 and 10 in order
	if len(mem.Events) != 3 || mem.Events[1].Aux != 25 || mem.Events[2].Aux != 10 {
		t.Fatalf("want 25 then 10, got %+v", mem.Events)
	}
	r.PoolCheck(60, 100) // recover: re-arms silently
	if len(mem.Events) != 3 {
		t.Fatal("recovery must not emit")
	}
	r.PoolCheck(40, 100) // re-cross 50
	if len(mem.Events) != 4 || mem.Events[3].Aux != 50 {
		t.Fatalf("re-armed 50%% crossing missing: %+v", mem.Events)
	}
	r.PoolCheck(0, 100) // bottom: 25, 10, 0
	if len(mem.Events) != 7 || mem.Events[6].Aux != 0 {
		t.Fatalf("want crossings down to 0, got %+v", mem.Events)
	}
	if r.Count(KindPoolWatermark) != 7 {
		t.Fatalf("watermark count = %d, want 7", r.Count(KindPoolWatermark))
	}
}

func TestWatermarksCustomAndDisabled(t *testing.T) {
	mem := &MemorySink{}
	r := New(Options{Sink: mem, Watermarks: []int{30}})
	r.PoolCheck(31, 100)
	r.PoolCheck(30, 100)
	if len(mem.Events) != 1 || mem.Events[0].Aux != 30 {
		t.Fatalf("custom watermark: got %+v", mem.Events)
	}

	mem2 := &MemorySink{}
	r2 := New(Options{Sink: mem2, Watermarks: []int{}})
	r2.PoolCheck(0, 100)
	if len(mem2.Events) != 0 {
		t.Fatal("explicit empty watermark list must disable crossings")
	}
}

func TestSeries(t *testing.T) {
	r := New(Options{})
	r.Sample(0, 100, 0, 3, 2, 1)
	r.Sample(10, 40, 60, 7, 5, 4)
	r.Sample(20, 80, 20, 1, 2, 2)

	s := r.Series()
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if got := s.At(1); got.T != 10 || got.FreeMB != 40 || got.LentMB != 60 || got.Queue != 7 || got.Busy != 5 || got.Running != 4 {
		t.Fatalf("At(1) = %+v", got)
	}
	if s.MinFreeMB() != 40 || s.PeakLentMB() != 60 || s.PeakQueue() != 7 {
		t.Fatalf("aggregates wrong: min=%d peakLent=%d peakQueue=%d",
			s.MinFreeMB(), s.PeakLentMB(), s.PeakQueue())
	}
	empty := &Series{}
	if empty.MinFreeMB() != 0 || empty.PeakLentMB() != 0 || empty.PeakQueue() != 0 {
		t.Fatal("empty-series aggregates must be 0")
	}
}

func emitFixture(r *Recorder) {
	r.SetNow(0)
	r.JobSubmit(1, false)
	r.Sample(0, 1000, 0, 1, 0, 0)
	r.SetNow(5)
	r.JobStart(1, 2, 512, 128)
	r.LeaseGrant(1, 0, 3, 128)
	r.BackfillHole(2, math.Inf(1))
	r.PoolCheck(40, 100)
	r.SetNow(9)
	r.JobEnd(1, "oom-killed", 1)
	r.LeaseRevoke(1, 0, 3, 128)
	r.Sample(10, 1000, 0, 0, 0, 0)
}

func TestJSONLByteDeterminismAndRoundTrip(t *testing.T) {
	var buf1, buf2 bytes.Buffer
	for _, buf := range []*bytes.Buffer{&buf1, &buf2} {
		r := New(Options{Sink: NewJSONL(buf)})
		emitFixture(r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("identical emissions produced different JSONL bytes")
	}

	log, err := ReadLog(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != 7 {
		t.Fatalf("decoded %d events, want 7", len(log.Events))
	}
	if log.Series.Len() != 2 {
		t.Fatalf("decoded %d samples, want 2", log.Series.Len())
	}
	// The +Inf reservation must survive the string encoding round trip.
	var hole *Event
	for i := range log.Events {
		if log.Events[i].Kind == KindBackfillHole {
			hole = &log.Events[i]
		}
	}
	if hole == nil || !math.IsInf(hole.V, 1) {
		t.Fatalf("backfill hole V did not round-trip +Inf: %+v", hole)
	}
	counts := log.Counts()
	if counts[KindJobSubmit] != 1 || counts[KindPoolWatermark] != 1 || counts[KindJobEnd] != 1 {
		t.Fatalf("decoded counts wrong: %v", counts)
	}
	if log.Events[5].Detail != "oom-killed" || log.Events[5].Aux != 1 {
		t.Fatalf("JobEnd detail lost: %+v", log.Events[5])
	}
}

func TestReadLogRejectsUnknownEvent(t *testing.T) {
	_, err := ReadLog(strings.NewReader(`{"t":1,"ev":"mystery"}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "unknown event") {
		t.Fatalf("want unknown-event error, got %v", err)
	}
}

type failSink struct{ MemorySink }

func (f *failSink) Event(e *Event) error { return errors.New("disk full") }

func TestSinkErrorSurfacedOnce(t *testing.T) {
	r := New(Options{Sink: &failSink{}})
	r.JobSubmit(1, false)
	r.JobSubmit(2, false)
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "disk full") {
		t.Fatalf("sink error not captured: %v", r.Err())
	}
	if err := r.Close(); err == nil {
		t.Fatal("Close must surface the first sink error")
	}
	if r.TotalEvents() != 2 {
		t.Fatal("counting must continue after a sink error")
	}
}

func TestMultiSinkFanOut(t *testing.T) {
	a, b := &MemorySink{}, &MemorySink{}
	m := MultiSink{a, b}
	r := New(Options{Sink: m})
	r.JobSubmit(1, false)
	r.Sample(0, 1, 2, 3, 4, 5)
	if len(a.Events) != 1 || len(b.Events) != 1 || len(a.Samples) != 1 || len(b.Samples) != 1 {
		t.Fatal("fan-out missed a child")
	}
}

func TestPromSink(t *testing.T) {
	p := NewPromSink()
	r := New(Options{Sink: p})
	emitFixture(r)
	r.LeaseAdjust(1, 0, -2048, -1024)

	var out bytes.Buffer
	if err := p.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		`dismem_events_total{kind="job_submit"} 1`,
		`dismem_events_total{kind="lease_adjust"} 1`,
		`dismem_jobs_oom_killed_total 1`,
		`dismem_pool_samples_total 2`,
		`dismem_pool_free_mb 1000`,
		`dismem_lease_grant_mb_bucket{le="256"} 1`,
		`dismem_lease_grant_mb_sum 128`,
		`dismem_lease_adjust_abs_mb_sum 2048`,
		`dismem_queue_depth_count 2`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	for _, v := range []int64{5, 10, 11, 1000} {
		h.Observe(v)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Inf != 1 {
		t.Fatalf("bucket counts wrong: %+v", h)
	}
	if h.Sum != 1026 || h.N != 4 {
		t.Fatalf("sum/count wrong: %+v", h)
	}
	var out bytes.Buffer
	if err := h.WriteText(&out, "x"); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE x histogram\nx_bucket{le=\"10\"} 2\nx_bucket{le=\"100\"} 3\nx_bucket{le=\"+Inf\"} 4\nx_sum 1026\nx_count 4\n"
	if out.String() != want {
		t.Fatalf("exposition = %q, want %q", out.String(), want)
	}
}

func TestAggregateFromLog(t *testing.T) {
	var buf bytes.Buffer
	r := New(Options{Sink: NewJSONL(&buf)})
	emitFixture(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := AggregateFromLog(log)
	var out bytes.Buffer
	if err := p.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `dismem_pool_samples_total 2`) {
		t.Fatalf("rebuilt aggregates wrong:\n%s", out.String())
	}
}

// legacyWindowStatsLog is the tail of a log written by an older
// `dmpsim -parallel` run: the windowed executor closed its log with one
// run-level window_stats record. Nothing emits that kind any more, but such
// logs must keep decoding and aggregating.
const legacyWindowStatsLog = `{"t":0,"ev":"job_submit","job":174,"node":-1,"lender":-1,"mb":0,"aux":0,"v":"0","detail":""}
{"t":10,"ev":"job_start","job":174,"node":2,"lender":-1,"mb":1024,"aux":512,"v":"0","detail":""}
{"t":104971.27311106265,"ev":"job_end","job":174,"node":-1,"lender":-1,"mb":0,"aux":0,"v":"0","detail":"completed"}
{"t":105000,"ev":"pool_sample","free_mb":8388608,"lent_mb":0,"queue":0,"busy":0,"running":0}
{"t":104971.27311106265,"ev":"window_stats","job":-1,"node":597,"lender":0,"mb":3561,"aux":4653,"v":"0","detail":""}
`

func TestReadLogLegacyWindowStats(t *testing.T) {
	log, err := ReadLog(strings.NewReader(legacyWindowStatsLog))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Events) != 4 || log.Series.Len() != 1 {
		t.Fatalf("decoded %d events and %d samples, want 4 and 1", len(log.Events), log.Series.Len())
	}
	ws := log.Events[3]
	want := Event{T: 104971.27311106265, Kind: KindWindowStats, Job: -1, Node: 597, Lender: 0, MB: 3561, Aux: 4653}
	if ws != want {
		t.Fatalf("window_stats decoded as %+v, want %+v", ws, want)
	}
	var out bytes.Buffer
	if err := AggregateFromLog(log).WriteText(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `dismem_pool_samples_total 1`) {
		t.Fatalf("aggregates over a legacy log wrong:\n%s", out.String())
	}
}
