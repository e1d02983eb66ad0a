package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dismem/internal/cluster"
	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
	"dismem/internal/sched"
	"dismem/internal/slowdown"
	"dismem/internal/topology"
)

// differentialScenario builds one randomized configuration and a job
// generator that produces identical traces on every call, so the same
// scenario can be run several ways and compared.
func differentialScenario(seed int64) (Config, func() []*job.Job) {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	nodes := 4 + rng.Intn(9)
	capMB := int64(800 + rng.Intn(5)*400)
	pols := []policy.Kind{policy.Baseline, policy.Static, policy.Dynamic}

	cfg := baseConfig(nodes, capMB, pols[int(seed)%len(pols)])
	cfg.Cluster.LargeFrac = []float64{0, 0.25, 0.5}[rng.Intn(3)]
	cfg.Backfill = []BackfillMode{EASYBackfill, ConservativeBackfill, NoBackfill}[rng.Intn(3)]
	cfg.EnforceTimeLimit = rng.Intn(2) == 0
	cfg.OOM = OOMMode(rng.Intn(2))
	cfg.MaxRestarts = 1 + rng.Intn(3)
	cfg.UpdateInterval = 40 + float64(rng.Intn(100))
	cfg.UpdateJitter = 0.2
	cfg.Seed = seed
	if rng.Intn(3) == 0 {
		// Exercise the hop-weighted remote fractions: with a topology and a
		// hop penalty, the cached max fraction path sees values above 1.
		topo := topology.Design(nodes)
		cfg.Topology = &topo
		cfg.HopPenalty = 0.5
	}

	jobSeed := seed*104729 + 5
	mkJobs := func() []*job.Job {
		jr := rand.New(rand.NewSource(jobSeed))
		n := 6 + jr.Intn(10)
		jobs := make([]*job.Job, 0, n)
		for i := 1; i <= n; i++ {
			req := int64(150 + jr.Intn(int(capMB)))
			runtime := 100 + float64(jr.Intn(900))
			var usage *memtrace.Trace
			switch jr.Intn(4) {
			case 0:
				usage = memtrace.Constant(req)
			case 1: // shrinks: the dynamic policy returns memory mid-run
				usage = memtrace.MustNew([]memtrace.Point{
					{T: 0, MB: req}, {T: runtime / 2, MB: req/2 + 1},
				})
			case 2: // grows past the request: borrows remotely
				usage = memtrace.MustNew([]memtrace.Point{
					{T: 0, MB: req / 2}, {T: runtime, MB: req + capMB/2},
				})
			default: // grows past the whole pool: OOM kills and restarts
				usage = memtrace.MustNew([]memtrace.Point{
					{T: 0, MB: req / 2}, {T: runtime, MB: 4 * capMB * int64(nodes)},
				})
			}
			j := mkJob(i, float64(jr.Intn(600)), 1+jr.Intn(3), req, runtime, usage)
			if jr.Intn(2) == 0 {
				j.Profile = streamProfile()
			}
			if jr.Intn(3) == 0 {
				j.LimitSec = runtime * 1.2 // tight limit: time-outs under slowdown
			}
			jobs = append(jobs, j)
		}
		return jobs
	}
	return cfg, mkJobs
}

// rescan is the full-rescan reference for the incremental contention
// refresh: it re-derives every running job's slowdown from the ledger with
// no caching. Jobs are visited in ascending ID order and nodes in PerNode
// order, and each node's traffic is summed into its home domain (0 under
// global pressure, the node's ledger shard under domains pressure), so every
// domain's float additions associate exactly as the incremental sum's do.
// Its per-domain bandwidths are derived from the node list, not read from
// the simulator. Scratch is reused across calls.
type rescan struct {
	bw, traffic, rho []float64
	ids              []int
	jobs             []*runningJob
	slow             []float64
}

func newRescan(s *Simulator) *rescan {
	r := &rescan{}
	var counts []int
	for _, n := range s.cl.Nodes() {
		d := rescanDomain(s, n.ID)
		for len(counts) <= d {
			counts = append(counts, 0)
		}
		counts[d]++
	}
	for _, c := range counts {
		r.bw = append(r.bw, s.cfg.PerNodeRemoteBW*float64(c))
	}
	r.traffic = make([]float64, len(r.bw))
	r.rho = make([]float64, len(r.bw))
	return r
}

// rescanDomain is a node's home domain, derived from the configuration.
func rescanDomain(s *Simulator, node cluster.NodeID) int {
	if s.cfg.Pressure == PressureDomains {
		return s.cl.ShardOf(node)
	}
	return 0
}

// slowdowns returns the running jobs in ascending ID order and each job's
// rescan-derived slowdown: the maximum over its nodes of the weighted node
// slowdown at the node's home-domain pressure.
func (r *rescan) slowdowns(s *Simulator) ([]*runningJob, []float64) {
	r.ids = r.ids[:0]
	for id := range s.running {
		r.ids = append(r.ids, id)
	}
	sort.Ints(r.ids)
	r.jobs = r.jobs[:0]
	for _, id := range r.ids {
		r.jobs = append(r.jobs, s.running[id])
	}
	for d := range r.traffic {
		r.traffic[d] = 0
	}
	for _, rj := range r.jobs {
		for i := range rj.alloc.PerNode {
			na := &rj.alloc.PerNode[i]
			r.traffic[rescanDomain(s, na.Node)] += slowdown.NodeTraffic(rj.j.Profile, 1-na.LocalFraction())
		}
	}
	for d := range r.rho {
		r.rho[d] = slowdown.PressureBW(r.traffic[d], r.bw[d])
	}
	r.slow = r.slow[:0]
	for _, rj := range r.jobs {
		slow := 1.0
		for i := range rj.alloc.PerNode {
			na := &rj.alloc.PerNode[i]
			if v := slowdown.NodeSlowdownWeighted(rj.j.Profile, s.remoteFraction(na), r.rho[rescanDomain(s, na.Node)]); v > slow {
				slow = v
			}
		}
		r.slow = append(r.slow, slow)
	}
	return r.jobs, r.slow
}

// refresh is the rescan counterpart of one refreshDomains call over the
// whole running set: bank every job, re-derive every slowdown, refinish.
func (r *rescan) refresh(s *Simulator) {
	now := s.eng.Now()
	jobs, slow := r.slowdowns(s) // a function of the allocations alone
	for _, rj := range jobs {
		s.bank(rj) // at the prevailing slowdown
	}
	for i, rj := range jobs {
		rj.slow = slow[i]
		s.refinish(rj, now)
	}
}

// currentResourcesRescan is the per-node rescan reference for
// currentResources.
func currentResourcesRescan(s *Simulator) sched.Resources {
	normalMB := s.cfg.Cluster.NormalMB
	var r sched.Resources
	for _, n := range s.cl.Nodes() {
		if n.IsComputeAvailable() {
			if n.CapacityMB > normalMB {
				r.LargeNodes++
			} else {
				r.NormalNodes++
			}
		}
	}
	r.FreeMB = s.cl.TotalFreeMB()
	return r
}

// releasesRescan is the reference for releases: a fresh allocation per
// call, visiting the running map's jobs in ascending ID order.
func releasesRescan(s *Simulator) []sched.Release {
	ids := make([]int, 0, len(s.running))
	for id := range s.running {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]sched.Release, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.releaseOf(s.running[id]))
	}
	return out
}

// runWithRescanOracle drives a scenario one event at a time and, after
// every event, checks the incremental state against the rescan references:
// each running job's slowdown bit for bit, the O(1) resource summary, and
// the release list. It returns the Result and how many (event, job) checks
// saw a slowdown above 1, so callers can tell the scenario exercised
// contention.
func runWithRescanOracle(t *testing.T, cfg Config, jobs []*job.Job) (*Result, int) {
	t.Helper()
	s, err := New(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	r := newRescan(s)
	contended := 0
	for ev := 1; s.eng.Step(); ev++ {
		running, slow := r.slowdowns(s)
		for i, rj := range running {
			got := rj.slow
			if math.Float64bits(got) != math.Float64bits(slow[i]) {
				t.Fatalf("event %d (t=%g): job %d slowdown %v, rescan %v", ev, s.eng.Now(), rj.j.ID, got, slow[i])
			}
			if got > 1 {
				contended++
			}
		}
		if got, want := s.currentResources(), currentResourcesRescan(s); got != want {
			t.Fatalf("event %d (t=%g): resources %+v, rescan %+v", ev, s.eng.Now(), got, want)
		}
		if got, want := s.releases(), releasesRescan(s); !slices.Equal(got, want) {
			t.Fatalf("event %d (t=%g): releases %+v, rescan %+v", ev, s.eng.Now(), got, want)
		}
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed+res.TimedOut+res.Abandoned == 0 && !res.Infeasible {
		t.Fatal("scenario exercised nothing")
	}
	return res, contended
}

// TestDifferentialRefreshIncrementalVsRescan runs randomized scenarios —
// all three policies, all backfill modes, OOM restart/abandon paths, with
// and without topology weighting — under global pressure through the
// per-event rescan oracle, and checks that stepping the run event by event
// yields the same Result as Run. This is the end-to-end proof that the
// cached contention state, the O(1) resource summary and the reused scratch
// match a from-scratch derivation after every single event.
func TestDifferentialRefreshIncrementalVsRescan(t *testing.T) {
	contended := 0
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg, mkJobs := differentialScenario(seed)
			stepped, n := runWithRescanOracle(t, cfg, mkJobs())
			contended += n
			if res := runSim(t, cfg, mkJobs()); !reflect.DeepEqual(stepped, res) {
				t.Fatalf("stepped run diverged from Run\nstepped: %+v\nrun:     %+v", stepped, res)
			}
		})
	}
	if contended == 0 {
		t.Fatal("no job ever ran above slowdown 1: the oracle compared only trivial slowdowns")
	}
}

// TestDifferentialRefreshDomainsVsRescan runs the per-event rescan oracle
// under several pressure domains, where each event refreshes only the
// touched job's home domains and jobs may span domains.
func TestDifferentialRefreshDomainsVsRescan(t *testing.T) {
	for _, doms := range []int{2, 3} {
		contended := 0
		for seed := int64(0); seed < 30; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("domains=%d/seed=%d", doms, seed), func(t *testing.T) {
				cfg, mkJobs := differentialScenario(seed)
				cfg.Pressure = PressureDomains
				cfg.Domains = doms
				_, n := runWithRescanOracle(t, cfg, mkJobs())
				contended += n
			})
		}
		if contended == 0 {
			t.Fatalf("domains=%d: no job ever ran above slowdown 1", doms)
		}
	}
}

// midRunSimulator builds a simulator and stops its clock mid-run with many
// jobs still running, for white-box refresh and backfill measurements.
func midRunSimulator(tb testing.TB, nJobs, nodes int, bf BackfillMode) *Simulator {
	tb.Helper()
	cfg := baseConfig(nodes, 4096, policy.Dynamic)
	cfg.CheckInvariants = false
	cfg.Backfill = bf
	cfg.UpdateInterval = 100
	cfg.Horizon = 1000 // freeze mid-flight: jobs below run for 20000 s
	jobs := make([]*job.Job, 0, nJobs)
	for i := 1; i <= nJobs; i++ {
		req := int64(1024 + (i%7)*256)
		usage := memtrace.MustNew([]memtrace.Point{
			{T: 0, MB: req / 2}, {T: 10000, MB: req + 512},
		})
		j := mkJob(i, float64(i%40), 1+i%3, req, 20000, usage)
		if i%2 == 0 {
			j.Profile = streamProfile()
		}
		jobs = append(jobs, j)
	}
	s, err := New(cfg, jobs)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		tb.Fatal(err)
	}
	if len(s.running) == 0 {
		tb.Fatal("no jobs running at the horizon")
	}
	return s
}

// TestRefreshAndBackfillPassAllocationFree asserts the per-event hot paths
// allocate nothing at steady state: the incremental refresh works entirely
// out of cached and scratch storage, and one conservative-backfill profile
// build reuses the pooled buffers.
func TestRefreshAndBackfillPassAllocationFree(t *testing.T) {
	s := midRunSimulator(t, 32, 48, ConservativeBackfill)
	rj := s.runList[0]
	s.refreshDomains(rj) // warm caches and scratch
	full := func() {
		s.invalidate(rj) // defeat the elision: measure the full recompute
		s.refreshDomains(rj)
	}
	if got := testing.AllocsPerRun(50, full); got != 0 {
		t.Fatalf("refreshDomains allocates %.1f per call at steady state, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() { s.refreshDomains(rj) }); got != 0 {
		t.Fatalf("elided refreshDomains allocates %.1f per call, want 0", got)
	}
	if s.prof == nil {
		s.prof = &sched.Profile{}
	}
	rebuild := func() {
		s.prof.Reset(s.eng.Now(), s.currentResources(), s.releases())
	}
	rebuild() // size the pooled buffers
	if got := testing.AllocsPerRun(50, rebuild); got != 0 {
		t.Fatalf("backfill profile rebuild allocates %.1f per pass, want 0", got)
	}
}

// BenchmarkRefresh isolates one contention refresh — the unit of work every
// start/finish/adjust/OOM event pays — under global pressure at a high
// concurrent-running count: the incremental refreshDomains with its one
// domain invalidated, the rescan oracle, and the elided refresh of a valid
// domain.
func BenchmarkRefresh(b *testing.B) {
	for _, mode := range []struct {
		name string
		step func(s *Simulator, r *rescan, rj *runningJob)
	}{
		{"incremental", func(s *Simulator, _ *rescan, rj *runningJob) {
			s.invalidate(rj)
			s.refreshDomains(rj)
		}},
		{"rescan", func(s *Simulator, r *rescan, _ *runningJob) { r.refresh(s) }},
		{"elided", func(s *Simulator, _ *rescan, rj *runningJob) { s.refreshDomains(rj) }},
	} {
		b.Run(mode.name, func(b *testing.B) {
			s := midRunSimulator(b, 96, 128, EASYBackfill)
			r, rj := newRescan(s), s.runList[0]
			mode.step(s, r, rj)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mode.step(s, r, rj)
			}
		})
	}
}
