package core

import (
	"testing"

	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
	"dismem/internal/telemetry"
)

// TestShardSpanningJob covers the shard-boundary case at the simulator
// level under pressure domains, where every domain is one ledger shard: a
// job whose compute nodes span every domain grows past its nodes' capacity
// and borrows from a lender in another domain. The run goes through the
// per-event rescan oracle with the ledger invariants checked after every
// event, and the lease stream must show cross-domain borrowing.
func TestShardSpanningJob(t *testing.T) {
	cfg := baseConfig(6, 1024, policy.Dynamic)
	cfg.Seed = 11
	cfg.UpdateInterval = 50
	cfg.Pressure = PressureDomains
	cfg.Domains = 3 // shards {0,1} {2,3} {4,5}
	mem := &telemetry.MemorySink{}
	cfg.Telemetry = telemetry.New(telemetry.Options{Sink: mem})
	grow := memtrace.MustNew([]memtrace.Point{
		{T: 0, MB: 256}, {T: 2000, MB: 1200},
	})
	jobs := []*job.Job{
		mkJob(1, 0, 5, 512, 2000, grow), // five of six nodes: every domain
		mkJob(2, 100, 1, 300, 400, memtrace.Constant(300)),
	}
	res, _ := runWithRescanOracle(t, cfg, jobs)
	if err := cfg.Telemetry.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed %d of 2 jobs (OOM kills %d)", res.Completed, res.OOMKills)
	}
	homes := map[int]bool{}
	cross := 0
	for _, e := range mem.Events {
		if e.Kind != telemetry.KindLeaseGrant || e.Job != 1 {
			continue
		}
		homes[e.Node/2] = true
		if e.Node/2 != e.Lender/2 {
			cross++
		}
	}
	if cross == 0 {
		t.Fatal("job 1 never borrowed across a domain boundary")
	}
	if len(homes) != 3 {
		t.Fatalf("job 1 borrowed for compute nodes in %d domains, want all 3", len(homes))
	}
}
