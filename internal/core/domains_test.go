package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
	"dismem/internal/slowdown"
	"dismem/internal/telemetry"
)

// runLogged executes cfg with a JSONL recorder attached and returns the
// Result plus the byte-exact telemetry log.
func runLogged(t *testing.T, cfg Config, jobs []*job.Job) (*Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Telemetry = telemetry.New(telemetry.Options{
		Sink:           telemetry.NewJSONL(&buf),
		SampleInterval: 90,
	})
	s, err := New(cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Telemetry.Close(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestSingleDomainMatchesGlobal is the partition property test: one pressure
// domain covering the whole cluster IS the global model. Global pressure
// runs the same one-domain refresh, so what differs is the lender walk: the
// domain-first placement and AdjustDomains against the global placer and
// Adjust. With one domain the domain-first borrow walk is the global lender
// walk, so results and telemetry must be byte-identical, not merely
// statistically close, across the randomized differential scenarios.
func TestSingleDomainMatchesGlobal(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg, mkJobs := differentialScenario(seed)
			gRes, gLog := runLogged(t, cfg, mkJobs())

			dc := cfg
			dc.Pressure = PressureDomains
			dc.Domains = 1
			dRes, dLog := runLogged(t, dc, mkJobs())

			if !reflect.DeepEqual(gRes, dRes) {
				t.Fatalf("results diverged\nglobal:        %+v\nsingle-domain: %+v", gRes, dRes)
			}
			if !bytes.Equal(gLog, dLog) {
				t.Fatalf("telemetry logs diverged (%d vs %d bytes)", len(gLog), len(dLog))
			}
			if gRes.Completed+gRes.TimedOut+gRes.Abandoned == 0 && !gRes.Infeasible {
				t.Fatal("scenario exercised nothing")
			}
		})
	}
}

// TestDomainsModeRelievesContention is the model-level sanity check the
// partition exists for: a bandwidth hog in one rack must not slow a job in
// another. Under uniform load per-domain rho equals global rho (traffic and
// bandwidth both scale with the node count), so the scenario is skewed: a
// hog with huge per-node bandwidth and a flat sensitivity curve (it emits
// traffic but feels no slowdown) fills one domain, and a
// contention-sensitive victim with modest remote traffic fills another. The
// global single rho charges the victim for the hog's traffic; the victim's
// domain rho sees only its own.
func TestDomainsModeRelievesContention(t *testing.T) {
	hogProf := &slowdown.Profile{
		Name: "hog", Nodes: 1, RuntimeSec: 100, BandwidthGBs: 50,
		Sens: slowdown.Curve{{Pressure: 0, Penalty: 0}},
	}
	mk := func() []*job.Job {
		hog := mkJob(1, 0, 3, 2048, 4000, memtrace.Constant(2048))
		hog.Profile = hogProf
		victim := mkJob(2, 0, 3, 1280, 4000, memtrace.Constant(1280))
		victim.Profile = streamProfile()
		return []*job.Job{hog, victim}
	}
	// 12 nodes, 4 domains of 3: the hog occupies one whole domain, the
	// victim the next, and the remaining idle nodes lend the remote halves.
	cfg := baseConfig(12, 1024, policy.Static)

	victimStretch := func(res *Result) float64 {
		for _, r := range res.Records {
			if r.Job.ID == 2 {
				return (r.Finish - r.LastStart) / r.Job.BaseRuntime
			}
		}
		t.Fatal("victim record missing")
		return 0
	}

	global := runSim(t, cfg, mk())

	dc := cfg
	dc.Pressure = PressureDomains
	dc.Domains = 4
	doms := runSim(t, dc, mk())

	gs, ds := victimStretch(global), victimStretch(doms)
	if gs <= 1 {
		t.Fatalf("global victim shows no contention (stretch %.3f): test exercises nothing", gs)
	}
	if ds >= gs {
		t.Fatalf("domain partition did not shield the victim: global stretch %.3f, domains stretch %.3f", gs, ds)
	}
}

// TestDomainsConfigValidation pins the Normalize contract for the new knobs.
func TestDomainsConfigValidation(t *testing.T) {
	cfg := baseConfig(8, 1024, policy.Dynamic)
	cfg.Domains = 4 // without Pressure: domains
	if err := cfg.Normalize(); err == nil {
		t.Fatal("Domains without Pressure: domains passed Normalize")
	}

	// An explicit count the contiguous partition cannot build is an error
	// naming the field: more domains than nodes, and 48 on 64 nodes (which
	// would build 32).
	for _, tc := range []struct{ nodes, domains int }{{8, 64}, {64, 48}, {64, 63}} {
		cfg = baseConfig(tc.nodes, 1024, policy.Dynamic)
		cfg.Pressure = PressureDomains
		cfg.Domains = tc.domains
		err := cfg.Normalize()
		if err == nil || !strings.Contains(err.Error(), "Domains") {
			t.Fatalf("%d domains on %d nodes: err = %v, want an error naming Domains", tc.domains, tc.nodes, err)
		}
		if _, err := New(cfg, nil); err == nil {
			t.Fatalf("%d domains on %d nodes: New accepted the config", tc.domains, tc.nodes)
		}
	}

	// Attainable explicit counts pass unchanged and build that many shards.
	for _, tc := range []struct{ nodes, domains int }{{8, 8}, {8, 4}, {64, 32}, {10, 4}} {
		cfg = baseConfig(tc.nodes, 1024, policy.Dynamic)
		cfg.Pressure = PressureDomains
		cfg.Domains = tc.domains
		s, err := New(cfg, nil)
		if err != nil {
			t.Fatalf("%d domains on %d nodes: %v", tc.domains, tc.nodes, err)
		}
		if s.cfg.Domains != tc.domains || s.cl.ShardCount() != tc.domains || s.nDom != tc.domains {
			t.Fatalf("%d domains on %d nodes: Domains=%d shards=%d nDom=%d",
				tc.domains, tc.nodes, s.cfg.Domains, s.cl.ShardCount(), s.nDom)
		}
	}

	// A defaulted count resolves to the count actually built: the default
	// 16 on 24 nodes builds 12 domains of 2 nodes.
	cfg = baseConfig(24, 1024, policy.Dynamic)
	cfg.Pressure = PressureDomains
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Domains != 12 {
		t.Fatalf("defaulted Domains on 24 nodes = %d, want 12", cfg.Domains)
	}
	if err := cfg.Normalize(); err != nil || cfg.Domains != 12 {
		t.Fatalf("Normalize is not idempotent: Domains=%d err=%v", cfg.Domains, err)
	}

	// Global pressure always runs a one-shard ledger: one domain.
	s, err := New(baseConfig(24, 1024, policy.Dynamic), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.cl.ShardCount() != 1 || s.nDom != 1 {
		t.Fatalf("global pressure: shards=%d nDom=%d, want 1 and 1", s.cl.ShardCount(), s.nDom)
	}
}

// midRunSimulatorDomains is midRunSimulator in pressure-domains mode.
func midRunSimulatorDomains(tb testing.TB, nJobs, nodes, doms int) *Simulator {
	tb.Helper()
	cfg := baseConfig(nodes, 4096, policy.Dynamic)
	cfg.CheckInvariants = false
	cfg.Backfill = EASYBackfill
	cfg.UpdateInterval = 100
	cfg.Pressure = PressureDomains
	cfg.Domains = doms
	cfg.Horizon = 1000
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

// TestRefreshDomainsAllocationFree asserts the per-event domain refresh
// allocates nothing at steady state with several domains, both for a job
// with one home domain and for one spanning several, whose refresh goes
// through the deduplicated refresh list.
func TestRefreshDomainsAllocationFree(t *testing.T) {
	// 24 domains of 2 nodes: every 3-node job spans two.
	s := midRunSimulatorDomains(t, 32, 48, 24)
	var single, spanning *runningJob
	for _, rj := range s.runList {
		if len(rj.homeDoms) == 1 && single == nil {
			single = rj
		}
		if len(rj.homeDoms) > 1 && spanning == nil {
			spanning = rj
		}
	}
	if single == nil || spanning == nil {
		t.Fatal("want running jobs with one and with several home domains")
	}
	for _, rj := range []*runningJob{single, spanning} {
		s.refreshDomains(rj) // warm scratch
		full := func() {
			s.invalidate(rj) // defeat the elision: rebuild the touched domains
			s.refreshDomains(rj)
		}
		if got := testing.AllocsPerRun(50, full); got != 0 {
			t.Fatalf("refreshDomains(job %d, %d home domains) allocates %.1f per call at steady state, want 0",
				rj.j.ID, len(rj.homeDoms), got)
		}
	}
}

// BenchmarkRefreshDomains is BenchmarkRefresh's domains-mode counterpart:
// one event's contention refresh at a high concurrent-running count. The
// domains rows touch one job's home domains (O(Δ)); BenchmarkRefresh's
// incremental row, whose one global domain holds every running job, is the
// reference.
func BenchmarkRefreshDomains(b *testing.B) {
	for _, doms := range []int{4, 16} {
		b.Run(fmt.Sprintf("domains=%d", doms), func(b *testing.B) {
			s := midRunSimulatorDomains(b, 96, 128, doms)
			rj := s.runList[0]
			s.refreshDomains(rj)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.invalidate(rj)
				s.refreshDomains(rj)
			}
		})
	}
}
