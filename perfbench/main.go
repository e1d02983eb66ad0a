// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one seeded workload for a fixed time, checks every
// output against a reference, and prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench -workload grizzly-week -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics of a separate traced pass (spans, counters,
// CPU profile). run.sh builds the program from source and calls this. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A run repeats its set-up at least setupReps times and for at least
// setupMinTime; setup_s is the median CPU time of one set-up. Set-ups of a
// few milliseconds thus get hundreds of repetitions, whose median a burst
// of host contention does not move.
const (
	setupReps    = 3
	setupMinTime = 5 * time.Second
)

// variants is how many distinct input sets each workload has: the seed
// selects one (seed mod variants). A set is a basket of inputs a run cycles
// through, so a run's median spans several inputs; refs.json holds a
// reference digest for every input of every set.
const variants = 8

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, reported with
// tracing off. Every workload reports every one. Times are CPU times: on a
// shared virtual machine, wall times move with other tenants' load by more
// than any bound worth gating, and the wall time is reported per layer as
// run_wall_s. run_cpu_s is the measured phase's CPU time per operation,
// which spreads the host's swings in speed over the whole phase; the
// median of its few operations would rest on one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced pass's metrics. A metric of a layer a workload
// does not exercise reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{{"profile.samples", "count"}}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{l + ".cpu_frac", "fraction"})
	}
	return append(defs, []metricDef{
		{"run_wall_s", "s"},
		{"traces.grizzly_s", "s"},
		{"core.new_s", "s"},
		{"core.run_s", "s"},
		{"experiments.headlines_cold_s", "s"},
		{"experiments.headlines_warm_s", "s"},
		{"experiments.load_ms", "ms"},
		{"experiments.load.n", "count"},
		{"experiments.scenario_ms", "ms"},
		{"experiments.scenario.n", "count"},
		{"experiments.branch_ms", "ms"},
		{"experiments.branch.n", "count"},
		{"server.render_ms", "ms"},
		{"server.render.n", "count"},
		{"tracegen.hits", "count"},
		{"tracegen.misses", "count"},
		{"sweep.peak_workers", "count"},
		{"cluster.lease_grants", "count"},
		{"cluster.lease_adjusts", "count"},
		{"cluster.lease_revokes", "count"},
		{"sched.backfill_places", "count"},
		{"sched.peak_queue", "count"},
		{"core.oom_kills", "count"},
		{"server.cache_hit_ratio", "fraction"},
		{"server.cache_lookups", "count"},
		{"server.runs_started", "count"},
		{"server.rejected", "count"},
		{"server.cpu_s", "s"},
		{"scenario_p50_ms", "ms"},
		{"scenario_p90_ms", "ms"},
		{"scenario.n", "count"},
		{"branch_p50_ms", "ms"},
		{"branch_p90_ms", "ms"},
		{"branch.n", "count"},
		{"server.hit_p50_ms", "ms"},
		{"hit.n", "count"},
		{"loadgen.lag_p90_ms", "ms"},
		{"error_rate", "fraction"},
		{"go.alloc_mb", "MB"},
		{"go.gc_cycles", "count"},
		{"go.cpu_s", "s"},
		{"trace.overhead_frac", "fraction"},
	}...)
}()

// env is one invocation's settings.
type env struct {
	workload string
	variant  int
	basket   int // inputs per variant
	seconds  time.Duration
	trace    bool
	dmpd     string // dmpd binary (dmpd-mix)
	dmpexp   string // dmpexp binary (paper-figures)
	goBin    string // go command, for go tool pprof
	out      string // directory for profiles and span files
	refs     refs
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed operation and says why on stderr.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
}

// workload is one benchmark workload: its run, the size of its input
// basket, and the reference digest of one input.
type workload struct {
	run    func(e *env, o *outcome) error
	basket int
	digest func(input int) (string, error)
}

var workloads = map[string]workload{
	"grizzly-week":     {runGrizzlyWeek, grizzlyBasket, grizzlyDigest},
	"hundredk-domains": {runHundredKDomains, hundredKBasket, hundredKDigest},
	"paper-figures":    {runPaperFigures, figuresBasket, figuresDigest},
	"dmpd-mix":         {runDmpdMix, 1, mixRefDigest},
}

// input is the id of the k-th input of the run's basket (cycling).
func (e *env) input(k int) int { return e.variant*e.basket + k%e.basket }

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "grizzly-week | hundredk-domains | paper-figures | dmpd-mix")
	seed := flag.Int64("seed", 1, "workload seed; selects input set seed mod 8")
	seconds := flag.Int("seconds", 15, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced pass reporting per-layer metrics")
	dmpd := flag.String("dmpd", "", "dmpd binary (dmpd-mix)")
	dmpexp := flag.String("dmpexp", "", "dmpexp binary (paper-figures)")
	goBin := flag.String("go", "go", "go command, for go tool pprof")
	out := flag.String("out", ".", "directory for profiles and span files")
	record := flag.String("record", "", "record reference digests of every input into this refs.json")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *record != "" {
		return recordRefs(*record, *workload)
	}
	r, err := loadRefs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := &env{
		workload: *workload,
		variant:  int(((*seed % variants) + variants) % variants),
		basket:   w.basket,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		dmpd:     *dmpd,
		dmpexp:   *dmpexp,
		goBin:    *goBin,
		out:      *out,
		refs:     r,
	}
	o := newOutcome()
	if err := w.run(e, o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if o.attempted > 0 {
		o.layer["error_rate"] = float64(o.failed) / float64(o.attempted)
	}
	defs, vals := endToEnd, o.e2e
	if e.trace {
		defs, vals = perLayer, o.layer
	}
	res := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]map[string]any{}}
	res.Correct = o.failed == 0 && o.attempted > 0
	for _, d := range defs {
		v, ok := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (!ok && !e.trace) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured\n", d.name)
			v, res.Correct = 0, false
		}
		res.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// recordRefs computes the reference digest of every input of workload and
// merges them into the refs file at path.
func recordRefs(path, name string) int {
	r := refs{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &r); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	w := workloads[name]
	for in := 0; in < variants*w.basket; in++ {
		d, err := w.digest(in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: record %s: %v\n", refKey(name, in), err)
			return 1
		}
		r[refKey(name, in)] = d
		fmt.Fprintf(os.Stderr, "%s %s\n", refKey(name, in), d)
	}
	if err := writeRefs(path, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// timeLoop calls op(0), op(1), ... until budget has elapsed, at least
// once. It returns each call's wall time and CPU time in seconds and the
// mean over calls of each call's peak RSS in MB. Before every call,
// untimed, memory is handed back to the OS and the kernel's peak count
// restarted, so a call's peak does not depend on the garbage its
// predecessors left. The mean, not the median: a call's peak moves with GC
// timing, and the mean of a run's calls varies least from run to run. It
// stops at op's first error.
func timeLoop(budget time.Duration, op func(k int) error) (wall, cpu []float64, rss float64, err error) {
	var peaks []float64
	start := time.Now()
	for len(wall) == 0 || time.Since(start) < budget {
		if err := resetPeakRSS(); err != nil {
			return nil, nil, 0, err
		}
		t0, c0 := time.Now(), cpuTime()
		if err := op(len(wall)); err != nil {
			return nil, nil, 0, err
		}
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		peaks = append(peaks, peakRSSMB())
	}
	return wall, cpu, mean(peaks), nil
}

// firstOfBasket returns the times of the calls that ran the basket's first
// input: calls 0, n, 2n, ... of a loop cycling through n inputs.
func firstOfBasket(times []float64, n int) []float64 {
	var out []float64
	for i := 0; i < len(times); i += n {
		out = append(out, times[i])
	}
	return out
}

// repeatSetup calls setup, which reports how long its set-up took, at
// least setupReps times and for at least setupMinTime, and returns the
// median in seconds.
func repeatSetup(setup func() (time.Duration, error)) (float64, error) {
	var times []float64
	start := time.Now()
	for len(times) < setupReps || time.Since(start) < setupMinTime {
		d, err := setup()
		if err != nil {
			return 0, err
		}
		times = append(times, d.Seconds())
	}
	return median(times), nil
}

// cpuTimed runs f and returns the CPU time the process used meanwhile.
func cpuTimed(f func() error) (time.Duration, error) {
	c0 := cpuTime()
	err := f()
	return cpuTime() - c0, err
}

// cpuTime is the CPU time, user and system, that this process's threads
// have used so far. The kernel leaves out what the hypervisor stole from
// the virtual CPUs, so unlike wall time it does not grow when other
// tenants of the host take the CPU.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// count of this process's peak resident set size.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return clearPeakRSS("self")
}

// clearPeakRSS restarts the kernel's count of process pid's peak resident
// set size ("self" for this process).
func clearPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// peakRSSMB is this process's peak resident set size since the last
// resetPeakRSS.
func peakRSSMB() float64 { return procPeakRSSMB("self") }

// procPeakRSSMB is process pid's peak resident set size (VmHWM) in MB
// since its count last restarted.
func procPeakRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// goSnap is a point-in-time reading of the Go runtime counters.
type goSnap struct {
	allocBytes uint64
	gcCycles   uint32
	cpu        time.Duration
}

func takeGoSnap() goSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goSnap{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, cpu: cpuTime()}
}

// since adds the runtime counters accumulated after s to m.
func (s goSnap) since(m map[string]float64) {
	now := takeGoSnap()
	m["go.alloc_mb"] = float64(now.allocBytes-s.allocBytes) / (1 << 20)
	m["go.gc_cycles"] = float64(now.gcCycles - s.gcCycles)
	m["go.cpu_s"] = (now.cpu - s.cpu).Seconds()
}

// addSpans folds the tracer's spans into self-time metrics. names maps a
// span name to its metric; a metric ending in _ms is reported in
// milliseconds with a ".n" count beside it, otherwise in seconds.
func addSpans(m map[string]float64, tr *tracer, names map[string]string) {
	totals := selfTimes(tr.snapshot())
	for name, metric := range names {
		t := totals[name]
		if ms, ok := strings.CutSuffix(metric, "_ms"); ok {
			m[metric] = float64(t.Self.Microseconds()) / 1000
			m[ms+".n"] = float64(t.Count)
		} else {
			m[metric] = t.Self.Seconds()
		}
	}
}

// traced runs body under a CPU profile and a go-runtime snapshot, writes
// the spans, and adds the profile, runtime and span metrics to o.layer.
func traced(e *env, o *outcome, tr *tracer, spanNames map[string]string, body func() error) error {
	base := filepath.Join(e.out, fmt.Sprintf("%s-v%d", e.workload, e.variant))
	prof, err := startProfile(base + ".cpu.pprof")
	if err != nil {
		return err
	}
	snap := takeGoSnap()
	berr := body()
	snap.since(o.layer)
	if err := prof.stop(); err != nil {
		return err
	}
	if berr != nil {
		return berr
	}
	fracs, err := prof.cpuFractions(e.goBin)
	if err != nil {
		return err
	}
	for k, v := range fracs {
		o.layer[k] = v
	}
	addSpans(o.layer, tr, spanNames)
	return tr.writeJSON(base + ".spans.json")
}
