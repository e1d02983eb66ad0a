package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dismem/internal/experiments"
	"dismem/internal/server"
	"dismem/internal/tracegen"
)

// dmpd-mix drives the dmpd daemon (Quick preset, default flags) with an
// open loop: requests are due on a fixed seeded schedule whatever the
// daemon's state, and each is timed from its due time.
const (
	mixRate = 20 // requests due per second
	// mixTraceDays is the simulated span of every fresh scenario's trace:
	// half the Quick preset's day, so the mix keeps the daemon busy about
	// a quarter of the time on an idle 2-core box and stays below
	// saturation when the box runs several times slower.
	mixTraceDays = 0.5
	// mixParentLag is how long before a branch or repeat its parent
	// scenario was due; the parent has completed by then in steady state,
	// and a request still waits for it (late, counted) if not.
	mixParentLag = time.Second
	// peakWindow is how often the daemon's peak RSS is read and its count
	// restarted. peak_rss_mb is the mean of the per-window peaks, which
	// one ill-timed collection moves less than the lifetime peak.
	peakWindow = time.Second
	// refScenarios and refBranches are how many of a schedule's first
	// scenario and branch requests enter its reference digest.
	refScenarios = 8
	refBranches  = 4
)

// mixBlock is the class mix of every ten consecutive requests, dealt in
// seeded order: 4 fresh scenarios, 4 branches, 2 repeats.
var mixBlock = []string{
	classScenario, classScenario, classScenario, classScenario,
	classBranch, classBranch, classBranch, classBranch,
	classHit, classHit,
}

const (
	classScenario = "scenario" // fresh spec: result-cache and trace-cache miss
	classBranch   = "branch"   // what-if fork of a completed scenario
	classHit      = "hit"      // repeat of a completed scenario: cache hit
)

// scenarioShape is one sweep shape of a fresh scenario. Costs overlap
// (trace generation dominates a single cell), so the latency distribution
// has no gap for a percentile to fall into; weights are per ten scenarios.
type scenarioShape struct {
	memPcts  []int
	policies []string
	weight   int
}

var scenarioShapes = []scenarioShape{
	{[]int{75}, []string{"dynamic"}, 3},
	{[]int{75}, []string{"static", "dynamic"}, 2},
	{[]int{62, 87}, []string{"dynamic"}, 2},
	{[]int{62, 87}, []string{"static", "dynamic"}, 3},
}

// mixRequest is one scheduled request.
type mixRequest struct {
	idx    int
	class  string
	due    time.Duration
	parent int    // index of the scenario a branch or repeat depends on; -1 for none
	path   string // URL path; a branch's is built from its parent's reply
	body   []byte
	spec   *experiments.ScenarioSpec // the scenario (for a branch: the parent's)
}

// bag deals a fixed multiset of values in seeded random order, refilling
// when empty, so every stretch of a schedule has the same mix of request
// properties and schedules of different seeds cost about the same.
type bag[T any] struct {
	rng   *rand.Rand
	items []T
	left  []T
}

func (b *bag[T]) next() T {
	if len(b.left) == 0 {
		b.left = append(b.left, b.items...)
		b.rng.Shuffle(len(b.left), func(i, j int) { b.left[i], b.left[j] = b.left[j], b.left[i] })
	}
	v := b.left[0]
	b.left = b.left[1:]
	return v
}

// mixSchedule builds the first n requests of variant v's schedule. It is
// prefix-stable: the first m requests are the same for every n >= m.
func mixSchedule(v, n int) ([]*mixRequest, error) {
	rng := rand.New(rand.NewSource(int64(v)*7919 + 17))
	var shapes []scenarioShape
	for _, s := range scenarioShapes {
		for k := 0; k < s.weight; k++ {
			shapes = append(shapes, s)
		}
	}
	classes := &bag[string]{rng: rng, items: mixBlock}
	shape := &bag[scenarioShape]{rng: rng, items: shapes}
	large := &bag[float64]{rng: rng, items: []float64{0.25, 0.5}}
	overest := &bag[float64]{rng: rng, items: []float64{0, 0.3, 0.6}}
	domains := &bag[bool]{rng: rng, items: []bool{false, false, true}}
	branchAt := &bag[float64]{rng: rng, items: []float64{5_000, 10_000, 15_000, 20_000, 25_000, 30_000}}
	twoVariants := &bag[bool]{rng: rng, items: []bool{false, true}}

	var reqs []*mixRequest
	lastScenario := -1 // newest scenario due at least mixParentLag ago
	for i := 0; i < n; i++ {
		due := time.Duration(i) * time.Second / mixRate
		for k := lastScenario + 1; k < i; k++ {
			if reqs[k].class == classScenario && reqs[k].due <= due-mixParentLag {
				lastScenario = k
			}
		}
		r := &mixRequest{idx: i, due: due, parent: -1, class: classes.next()}
		if r.class != classScenario && lastScenario < 0 {
			r.class = classScenario // nothing completed to depend on yet
		}
		switch r.class {
		case classScenario:
			sh := shape.next()
			doc := map[string]any{
				"name": fmt.Sprintf("mix-%d-%d", v, i),
				"trace": map[string]any{
					"large_frac":     large.next(),
					"overestimation": overest.next(),
					"seed":           int64(v)*100_000 + int64(i) + 1, // unique: a trace-cache miss
					"days":           mixTraceDays,
				},
				"mem_pcts": sh.memPcts,
				"policies": sh.policies,
			}
			if domains.next() {
				doc["pressure"] = "domains"
			}
			if err := r.setScenario(doc); err != nil {
				return nil, err
			}
		case classHit:
			p := reqs[lastScenario]
			r.parent, r.path, r.body, r.spec = p.idx, p.path, p.body, p.spec
		case classBranch:
			p := reqs[lastScenario]
			r.parent, r.spec = p.idx, p.spec
			variants := []map[string]any{{"name": fmt.Sprintf("r%d-static", i), "policy": "static"}}
			if twoVariants.next() {
				variants = append(variants, map[string]any{"name": fmt.Sprintf("r%d-cons", i), "backfill": "conservative"})
			}
			doc := map[string]any{
				"mem_pct":   p.spec.MemPcts[0],
				"policy":    "dynamic",
				"at_time_s": branchAt.next() + float64(rng.Intn(1000)),
				"variants":  variants,
			}
			b, err := json.Marshal(doc)
			if err != nil {
				return nil, err
			}
			if _, err := experiments.LoadBranchSpec(bytes.NewReader(b)); err != nil {
				return nil, err
			}
			r.body = b
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

func (r *mixRequest) setScenario(doc map[string]any) error {
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	spec, err := experiments.LoadScenario(bytes.NewReader(b))
	if err != nil {
		return err
	}
	r.path, r.body, r.spec = "/v1/scenarios", b, spec
	return nil
}

// ---- the daemon -------------------------------------------------------------

type daemon struct {
	cmd  *exec.Cmd
	base string
}

// startDaemon starts dmpd at the Quick preset with its default admission
// and cache settings on a free local port and waits until /healthz
// answers. It returns the start-to-healthy time.
func startDaemon(bin string) (*daemon, time.Duration, error) {
	if bin == "" {
		return nil, 0, errors.New("no dmpd binary (-dmpd)")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{base: "http://" + addr}
	t0 := time.Now()
	d.cmd = exec.Command(bin, "-addr", addr, "-preset", "quick")
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	c := &http.Client{Timeout: time.Second}
	for time.Since(t0) < 30*time.Second {
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	d.kill()
	return nil, 0, errors.New("dmpd never became healthy")
}

// stop shuts the daemon down gracefully and returns the CPU time it used
// over its life.
func (d *daemon) stop() (time.Duration, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return 0, fmt.Errorf("dmpd exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return 0, errors.New("dmpd did not shut down")
	}
	return d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime(), nil
}

// samplePeaks reads the daemon's peak RSS every peakWindow, restarting the
// kernel's count each time, until the returned stop is called; stop takes
// a last reading and returns the per-window peaks in MB.
func (d *daemon) samplePeaks() (stop func() ([]float64, error)) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	quit := make(chan struct{})
	type result struct {
		peaks []float64
		err   error
	}
	res := make(chan result, 1)
	go func() {
		var r result
		sample := func() {
			r.peaks = append(r.peaks, procPeakRSSMB(pid))
			if err := clearPeakRSS(pid); err != nil && r.err == nil {
				r.err = err
			}
		}
		r.err = clearPeakRSS(pid)
		t := time.NewTicker(peakWindow)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				sample()
			case <-quit:
				sample()
				res <- r
				return
			}
		}
	}()
	return func() ([]float64, error) {
		close(quit)
		r := <-res
		return r.peaks, r.err
	}
}

// kill ends the daemon at once (error paths); safe after stop.
func (d *daemon) kill() {
	if d == nil || d.cmd.ProcessState != nil {
		return
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// metrics scrapes the daemon's /metrics counters.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				m[f[0]] = v
			}
		}
	}
	return m, sc.Err()
}

// ---- the load generator ----------------------------------------------------

// reply is one request's outcome; times are offsets from the schedule's
// start.
type reply struct {
	status     int
	body       []byte
	err        error
	sent, done time.Duration
}

// drive runs the schedule against the daemon over at most nconn
// connections. Requests leave in schedule order; a request waits for a free
// connection and for its parent's reply, and both waits count against it.
// With a tracer, each request gets an "http.post" span keyed by its index.
func drive(d *daemon, reqs []*mixRequest, nconn int, tr *tracer) []reply {
	transport := &http.Transport{MaxConnsPerHost: nconn, MaxIdleConnsPerHost: nconn, DisableCompression: true}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}
	replies := make([]reply, len(reqs))
	done := make([]chan struct{}, len(reqs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	next := make(chan int)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < nconn; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := reqs[i]
				time.Sleep(time.Until(t0.Add(r.due)))
				path := r.path
				if r.parent >= 0 {
					<-done[r.parent]
					p := replies[r.parent]
					if p.err != nil || p.status != http.StatusOK {
						replies[i] = reply{err: fmt.Errorf("parent request %d failed", r.parent)}
						close(done[i])
						continue
					}
					if r.class == classBranch {
						path = "/v1/scenarios/" + idOf(p.body) + "/branch"
					}
				}
				rep := reply{sent: time.Since(t0)}
				id := tr.begin("http.post", 0, i+1)
				resp, err := client.Post(d.base+path, "application/json", bytes.NewReader(r.body))
				if err == nil {
					rep.status = resp.StatusCode
					rep.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				tr.end(id)
				rep.err, rep.done = err, time.Since(t0)
				replies[i] = rep
				close(done[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return replies
}

// idOf extracts the "id" field of a rendered result.
func idOf(body []byte) string {
	var v struct {
		ID string `json:"id"`
	}
	json.Unmarshal(body, &v)
	return v.ID
}

// ---- offline rendering (the correctness reference) ------------------------

// replay computes every request's expected response body in-process, with
// the same public calls the daemon makes, nconn requests at a time. With a
// tracer each request is a "request" span whose children time loading and
// keying, the run, and the rendering; they share the request's index.
func replay(reqs []*mixRequest, nconn int, tr *tracer) ([][]byte, error) {
	p := experiments.Quick()
	bodies := make([][]byte, len(reqs))
	ids := make([]string, len(reqs))
	errs := make([]error, len(reqs))
	done := make([]chan struct{}, len(reqs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < nconn; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				bodies[i], ids[i], errs[i] = replayOne(p, reqs, i, ids, bodies, done, tr)
				close(done[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return bodies, errors.Join(errs...)
}

func replayOne(p experiments.Preset, reqs []*mixRequest, i int, ids []string, bodies [][]byte,
	done []chan struct{}, tr *tracer) ([]byte, string, error) {
	r := reqs[i]
	root := tr.begin("request", 0, i+1)
	defer tr.end(root)
	ctx := context.Background()
	switch r.class {
	case classScenario, classHit:
		sp := tr.begin("experiments.load", root, i+1)
		spec, err := experiments.LoadScenario(bytes.NewReader(r.body))
		var id string
		if err == nil {
			id, err = p.ScenarioKey(spec)
		}
		tr.end(sp)
		if err != nil {
			return nil, "", err
		}
		if r.class == classHit {
			<-done[r.parent]
			return bodies[r.parent], id, nil
		}
		sp = tr.begin("experiments.scenario", root, i+1)
		res, err := p.RunScenarioSpecCtx(ctx, spec)
		tr.end(sp)
		if err != nil {
			return nil, "", err
		}
		sp = tr.begin("server.render", root, i+1)
		b := server.RenderResult(id, p.Name, res)
		tr.end(sp)
		return b, id, nil
	default: // classBranch
		<-done[r.parent]
		sp := tr.begin("experiments.load", root, i+1)
		br, err := experiments.LoadBranchSpec(bytes.NewReader(r.body))
		if err == nil {
			err = br.ValidateFor(r.spec)
		}
		id := experiments.BranchKey(ids[r.parent], br)
		tr.end(sp)
		if err != nil {
			return nil, "", err
		}
		sp = tr.begin("experiments.branch", root, i+1)
		res, err := p.RunBranchSpec(ctx, r.spec, br)
		tr.end(sp)
		if err != nil {
			return nil, "", err
		}
		sp = tr.begin("server.render", root, i+1)
		b := server.RenderBranchResult(id, p.Name, res)
		tr.end(sp)
		return b, id, nil
	}
}

// headDigest digests the bodies of the first refScenarios scenarios and
// refBranches branches of a schedule; bodies[i] is request i's body.
func headDigest(reqs []*mixRequest, bodies [][]byte) (string, error) {
	var kept [][]byte
	nScen, nBr := 0, 0
	for _, r := range reqs {
		switch {
		case r.class == classScenario && nScen < refScenarios:
			nScen++
		case r.class == classBranch && nBr < refBranches:
			nBr++
		default:
			continue
		}
		kept = append(kept, bodies[r.idx])
	}
	if nScen < refScenarios || nBr < refBranches {
		return "", fmt.Errorf("schedule of %d requests is too short for the reference digest", len(reqs))
	}
	return bodiesDigest(kept), nil
}

// mixRefDigest records variant v's reference: the head digest of the
// offline bodies of its schedule. The schedule is prefix-stable, so the
// head of a 10 s schedule is the head of every run long enough to hold it.
func mixRefDigest(v int) (string, error) {
	reqs, err := mixSchedule(v, 10*mixRate)
	if err != nil {
		return "", err
	}
	bodies, err := replay(reqs, 2, nil)
	if err != nil {
		return "", err
	}
	return headDigest(reqs, bodies)
}

// ---- the workload ---------------------------------------------------------

// mixStats is one HTTP pass's client-side measurements.
type mixStats struct {
	lat      map[string][]float64 // class -> latency from due time, ms
	lag      []float64            // send time - due time, ms
	gated    []float64            // scenario + branch latencies, s
	rejected int                  // 429 answers
}

// pass runs the schedule on a started daemon, checks every reply against
// its offline rendering in want, and records failures in o.
func pass(d *daemon, reqs []*mixRequest, want [][]byte, o *outcome, tr *tracer) mixStats {
	replies := drive(d, reqs, runtime.NumCPU(), tr)
	st := mixStats{lat: map[string][]float64{}}
	for i, rep := range replies {
		r := reqs[i]
		o.attempted++
		switch {
		case rep.err != nil:
			o.fail("request %d (%s): %v", i, r.class, rep.err)
			continue
		case rep.status != http.StatusOK:
			if rep.status == http.StatusTooManyRequests {
				st.rejected++
			}
			o.fail("request %d (%s): HTTP %d: %s", i, r.class, rep.status, strings.TrimSpace(string(rep.body)))
			continue
		case !bytes.Equal(rep.body, want[i]):
			o.fail("request %d (%s): response differs from the offline rendering", i, r.class)
			continue
		}
		ms := float64(rep.done-r.due) / float64(time.Millisecond)
		st.lat[r.class] = append(st.lat[r.class], ms)
		st.lag = append(st.lag, float64(rep.sent-r.due)/float64(time.Millisecond))
		if r.class != classHit {
			st.gated = append(st.gated, ms/1000)
		}
	}
	return st
}

func runDmpdMix(e *env, o *outcome) error {
	reqs, err := mixSchedule(e.variant, int(e.seconds.Seconds()*mixRate))
	if err != nil {
		return err
	}
	nconn := runtime.NumCPU()

	// Correctness reference: every request's offline rendering, whose head
	// must match the recorded digest; each reply is compared against it.
	want, err := replay(reqs, nconn, nil)
	if err != nil {
		return fmt.Errorf("offline rendering: %v", err)
	}
	ref, err := headDigest(reqs, want)
	if err != nil {
		return err
	}
	if err := e.refs.check(refKey(e.workload, e.variant), ref); err != nil {
		o.fail("%v", err)
	}

	// Set-up: a daemon started, awaited healthy and stopped, several
	// times; a fresh daemon then serves the run.
	setup, err := repeatSetup(func() (time.Duration, error) {
		d, _, err := startDaemon(e.dmpd)
		if err != nil {
			return 0, err
		}
		return d.stop()
	})
	if err != nil {
		return err
	}
	d, _, err := startDaemon(e.dmpd)
	if err != nil {
		return err
	}
	defer d.kill()
	stopPeaks := d.samplePeaks()
	st := pass(d, reqs, want, o, nil)
	peaks, err := stopPeaks()
	if err != nil {
		return err
	}
	cpu, err := d.stop()
	if err != nil {
		return err
	}
	untraced := mean(st.gated)
	o.e2e["setup_s"] = setup
	o.e2e["run_cpu_s"] = cpu.Seconds() / float64(len(reqs))
	o.e2e["peak_rss_mb"] = mean(peaks)
	o.layer["run_wall_s"] = untraced
	if !e.trace {
		return nil
	}

	// Traced pass: a fresh daemon serves the same schedule with a span per
	// request, then the same requests are replayed in-process under the
	// CPU profile with a span per layer call.
	d2, _, err := startDaemon(e.dmpd)
	if err != nil {
		return err
	}
	defer d2.kill()
	tr := newTracer()
	st2 := pass(d2, reqs, want, o, tr)
	m, err := d2.metrics()
	if err != nil {
		return err
	}
	cpu, err = d2.stop()
	if err != nil {
		return err
	}
	o.layer["server.cpu_s"] = cpu.Seconds()
	hits, misses := m["dmpd_result_cache_hits_total"], m["dmpd_result_cache_misses_total"]
	o.layer["server.cache_lookups"] = hits + misses
	if hits+misses > 0 {
		o.layer["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	o.layer["server.runs_started"] = m["dmpd_scenarios_started_total"]
	o.layer["server.rejected"] = float64(st2.rejected)
	o.layer["tracegen.hits"] = m["dmpd_trace_cache_hits_total"]
	o.layer["tracegen.misses"] = m["dmpd_trace_cache_misses_total"]
	for _, c := range []string{classScenario, classBranch} {
		lat := st2.lat[c]
		p50, _ := percentile(lat, 0.5)
		p90, _ := percentile(lat, 0.9)
		if !tailOK(len(lat), 0.9) {
			fmt.Fprintf(os.Stderr, "perfbench: only %d %s samples; p90 has fewer than %d beyond it\n", len(lat), c, minBeyond)
		}
		o.layer[c+"_p50_ms"], o.layer[c+"_p90_ms"], o.layer[c+".n"] = p50, p90, float64(len(lat))
	}
	o.layer["server.hit_p50_ms"], _ = percentile(st2.lat[classHit], 0.5)
	o.layer["hit.n"] = float64(len(st2.lat[classHit]))
	o.layer["loadgen.lag_p90_ms"], _ = percentile(st2.lag, 0.9)
	o.layer["trace.overhead_frac"] = mean(st2.gated)/untraced - 1

	return traced(e, o, tr, map[string]string{
		"experiments.load":     "experiments.load_ms",
		"experiments.scenario": "experiments.scenario_ms",
		"experiments.branch":   "experiments.branch_ms",
		"server.render":        "server.render_ms",
	}, func() error {
		tracegen.ResetCache() // the daemon generated every fresh trace
		got, err := replay(reqs, nconn, tr)
		if err != nil {
			return err
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				o.fail("request %d: traced replay differs from the untraced one", i)
			}
		}
		return nil
	})
}
