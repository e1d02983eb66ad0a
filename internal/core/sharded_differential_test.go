package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dismem/internal/job"
	"dismem/internal/memtrace"
	"dismem/internal/policy"
	"dismem/internal/telemetry"
)

// runSharded executes one differential scenario on a ledger split into the
// given shard count and returns its Result plus the telemetry byte stream.
func runSharded(t *testing.T, cfg Config, jobs []*job.Job, shards int) (*Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	c := cfg
	c.Cluster.Shards = shards
	c.Telemetry = telemetry.New(telemetry.Options{
		Sink:           telemetry.NewJSONL(&buf),
		SampleInterval: 90,
	})
	s, err := New(c, jobs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Telemetry.Close(); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestDifferentialWindowedParallelVsSerial is the end-to-end oracle for the
// sharded ledger: the same 30 randomized scenarios as the
// incremental-vs-rescan suite — all policies, all backfill modes, OOM
// restart/abandon, topology weighting — each run through the serial event
// loop on a single-shard ledger and then on a few shards and on one shard
// per node. Results must be deeply equal and the telemetry JSONL
// byte-identical in every cell. The name dates from when the suite also
// ran the windowed parallel executor, since removed; the sharded variants
// are what remain.
func TestDifferentialWindowedParallelVsSerial(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg, mkJobs := differentialScenario(seed)
			wantRes, wantLog := runSharded(t, cfg, mkJobs(), 0)
			variants := []struct {
				name   string
				shards int
			}{
				{"sharded", 3},
				{"sharded-max", 1 << 20}, // clamps to one node per shard
			}
			for _, v := range variants {
				res, log := runSharded(t, cfg, mkJobs(), v.shards)
				if !reflect.DeepEqual(res, wantRes) {
					t.Fatalf("%s: results diverged\nunsharded: %+v\n%s: %+v", v.name, wantRes, v.name, res)
				}
				if !bytes.Equal(log, wantLog) {
					t.Fatalf("%s: telemetry logs diverged (%d vs %d bytes)", v.name, len(log), len(wantLog))
				}
			}
		})
	}
}

// TestShardSpanningJob covers the remaining shard-boundary case at the
// simulator level: a job whose allocation spans every shard (Nodes equal to
// the cluster size) with usage growth that borrows remote memory across
// shard boundaries, compared against the single-shard ledger.
func TestShardSpanningJob(t *testing.T) {
	cfg := baseConfig(6, 1024, policy.Dynamic)
	cfg.Seed = 11
	cfg.UpdateInterval = 50
	mk := func() []*job.Job {
		grow := memtrace.MustNew([]memtrace.Point{
			{T: 0, MB: 256}, {T: 2000, MB: 1500},
		})
		return []*job.Job{
			mkJob(1, 0, 6, 512, 2000, grow), // spans all 6 nodes → all shards
			mkJob(2, 100, 2, 700, 1200, memtrace.Constant(700)),
		}
	}
	wantRes, wantLog := runSharded(t, cfg, mk(), 1)
	for _, shards := range []int{2, 3, 6} {
		res, log := runSharded(t, cfg, mk(), shards)
		if !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("shards=%d: results diverged", shards)
		}
		if !bytes.Equal(log, wantLog) {
			t.Fatalf("shards=%d: telemetry diverged", shards)
		}
	}
}
