package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// applyOps drives a deterministic stream of raw ledger operations. The
// choices depend only on the rng and the cluster's observable state, so two
// clusters in identical states given equal-seeded rngs evolve identically.
func applyOps(t *testing.T, c *Cluster, rng *rand.Rand, nOps int) {
	t.Helper()
	for op := 0; op < nOps; op++ {
		id := NodeID(rng.Intn(c.Len()))
		n := c.Node(id)
		switch rng.Intn(6) {
		case 0:
			if n.RunningJob == NoJob && n.IsComputeAvailable() {
				if err := c.StartJob(id, op); err != nil {
					t.Fatalf("StartJob(%d): %v", id, err)
				}
			}
		case 1:
			if n.RunningJob != NoJob && n.LocalMB == 0 {
				if err := c.EndJob(id); err != nil {
					t.Fatalf("EndJob(%d): %v", id, err)
				}
			}
		case 2:
			if n.RunningJob != NoJob && n.FreeMB() > 0 {
				if err := c.AllocLocal(id, rng.Int63n(n.FreeMB())+1); err != nil {
					t.Fatalf("AllocLocal(%d): %v", id, err)
				}
			}
		case 3:
			if n.LocalMB > 0 {
				if err := c.ReleaseLocal(id, rng.Int63n(n.LocalMB)+1); err != nil {
					t.Fatalf("ReleaseLocal(%d): %v", id, err)
				}
			}
		case 4:
			if n.FreeMB() > 0 {
				if err := c.Lend(id, rng.Int63n(n.FreeMB())+1); err != nil {
					t.Fatalf("Lend(%d): %v", id, err)
				}
			}
		case 5:
			if n.LentMB > 0 {
				if err := c.ReturnLend(id, rng.Int63n(n.LentMB)+1); err != nil {
					t.Fatalf("ReturnLend(%d): %v", id, err)
				}
			}
		}
	}
}

// fingerprint captures every observable of the ledger: per-node fields, the
// aggregate getters, shard summaries, and the two globally ordered walks.
func fingerprint(c *Cluster) string {
	s := fmt.Sprintf("free=%d lent=%d alloc=%d busy=%d idle=%d",
		c.TotalFreeMB(), c.TotalLentMB(), c.TotalAllocatedMB(), c.BusyNodes(), c.IdleComputeCount())
	nrm, lrg := c.IdleComputeSplit()
	s += fmt.Sprintf(" split=%d/%d", nrm, lrg)
	for i := range c.Nodes() {
		n := c.Node(NodeID(i))
		s += fmt.Sprintf(";%d:%d,%d,%d", n.ID, n.LocalMB, n.LentMB, n.RunningJob)
	}
	for i := 0; i < c.ShardCount(); i++ {
		s += fmt.Sprintf("|%+v", c.Shard(i))
	}
	s += "|idle"
	for _, id := range c.IdleComputeNodes() {
		s += fmt.Sprintf(",%d", id)
	}
	s += "|lend"
	c.AscendLenders(func(id NodeID, free int64) bool {
		s += fmt.Sprintf(",%d:%d", id, free)
		return true
	})
	s += "|all"
	c.AscendFree(func(id NodeID, free int64) bool {
		s += fmt.Sprintf(",%d:%d", id, free)
		return true
	})
	return s
}

// A fork and its base must evolve exactly like two independently built
// clusters replaying the same operation streams, for every shard layout.
func TestForkDifferential(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				build := func() *Cluster {
					c := NewMixed(Config{Nodes: 24, Cores: 32, NormalMB: 4096, LargeFrac: 0.25}, shards)
					applyOps(t, c, rand.New(rand.NewSource(seed)), 150)
					return c
				}
				base, refBase, refFork := build(), build(), build()
				fork := base.Fork()

				// Divergent suffixes on base and fork; the references replay
				// the same streams on plain unforked clusters.
				applyOps(t, base, rand.New(rand.NewSource(seed+1000)), 150)
				applyOps(t, refBase, rand.New(rand.NewSource(seed+1000)), 150)
				applyOps(t, fork, rand.New(rand.NewSource(seed+2000)), 150)
				applyOps(t, refFork, rand.New(rand.NewSource(seed+2000)), 150)

				if got, want := fingerprint(base), fingerprint(refBase); got != want {
					t.Fatalf("seed %d: base diverged from replay\n got %s\nwant %s", seed, got, want)
				}
				if got, want := fingerprint(fork), fingerprint(refFork); got != want {
					t.Fatalf("seed %d: fork diverged from replay\n got %s\nwant %s", seed, got, want)
				}
				for name, c := range map[string]*Cluster{"base": base, "fork": fork} {
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("seed %d: %s: %v", seed, name, err)
					}
				}
			}
		})
	}
}

// Reading through a fork must not materialise anything: the whole point of
// the snapshot is that an untouched branch costs O(S) and nothing more.
func TestForkNoWriteNoCopies(t *testing.T) {
	c := NewMixed(Config{Nodes: 64, Cores: 32, NormalMB: 4096}, 8)
	applyOps(t, c, rand.New(rand.NewSource(7)), 200)
	f := c.Fork()
	_ = fingerprint(f)
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if nodes, thaws := f.CowStats(); nodes != 0 || thaws != 0 {
		t.Fatalf("read-only fork copied: nodeCopies=%d shardThaws=%d", nodes, thaws)
	}
	// After scratch has warmed once, reads through the fork are
	// allocation-free, same as an unforked ledger.
	_ = fingerprint(f)
	allocs := testing.AllocsPerRun(10, func() {
		f.AscendLenders(func(NodeID, int64) bool { return true })
		f.AscendFree(func(NodeID, int64) bool { return true })
		_ = f.TotalFreeMB()
		_ = f.IdleComputeCount()
	})
	if allocs != 0 {
		t.Fatalf("read path allocates %v/op after warmup", allocs)
	}
}

// A single write to a fork thaws exactly the touched shard (plus the one
// node-slice copy) and leaves the base bit-identical.
func TestForkFirstTouchGranularity(t *testing.T) {
	c := NewMixed(Config{Nodes: 64, Cores: 32, NormalMB: 4096}, 8)
	applyOps(t, c, rand.New(rand.NewSource(11)), 200)
	before := fingerprint(c)
	f := c.Fork()
	// Pick a node with lendable memory deterministically.
	var target = NodeID(-1)
	f.AscendLenders(func(id NodeID, free int64) bool { target = id; return false })
	if target < 0 {
		t.Fatal("no lender available")
	}
	if err := f.Lend(target, 1); err != nil {
		t.Fatal(err)
	}
	if nodes, thaws := f.CowStats(); nodes != 1 || thaws != 1 {
		t.Fatalf("first touch: nodeCopies=%d shardThaws=%d, want 1/1", nodes, thaws)
	}
	if err := f.ReturnLend(target, 1); err != nil {
		t.Fatal(err)
	}
	if nodes, thaws := f.CowStats(); nodes != 1 || thaws != 1 {
		t.Fatalf("second touch re-copied: nodeCopies=%d shardThaws=%d", nodes, thaws)
	}
	if got := fingerprint(c); got != before {
		t.Fatalf("base mutated by fork writes\n got %s\nwant %s", got, before)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Forks of forks and sibling forks may all mutate concurrently: every writer
// copies before its first write, frozen arrays are only read. Run under
// -race this is the aliasing proof.
func TestForkConcurrentBranches(t *testing.T) {
	c := NewMixed(Config{Nodes: 48, Cores: 32, NormalMB: 4096}, 6)
	applyOps(t, c, rand.New(rand.NewSource(3)), 200)

	branches := make([]*Cluster, 8)
	for i := range branches {
		branches[i] = c.Fork()
	}
	grand := branches[0].Fork() // fork of a fork

	var wg sync.WaitGroup
	run := func(cl *Cluster, seed int64) {
		defer wg.Done()
		// t.Fatalf must not be called off the test goroutine; applyOps only
		// performs state-guarded ops, so errors here indicate aliasing —
		// surfaced via CheckInvariants below and the race detector.
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 300; op++ {
			id := NodeID(rng.Intn(cl.Len()))
			n := cl.Node(id)
			switch rng.Intn(4) {
			case 0:
				if n.FreeMB() > 0 {
					_ = cl.Lend(id, rng.Int63n(n.FreeMB())+1)
				}
			case 1:
				if n.LentMB > 0 {
					_ = cl.ReturnLend(id, rng.Int63n(n.LentMB)+1)
				}
			case 2:
				if n.RunningJob == NoJob && n.IsComputeAvailable() {
					_ = cl.StartJob(id, op)
				}
			case 3:
				cl.AscendLenders(func(NodeID, int64) bool { return true })
			}
		}
	}
	all := append(append([]*Cluster{}, branches...), grand, c)
	for i, cl := range all {
		wg.Add(1)
		go run(cl, int64(100+i))
	}
	wg.Wait()
	for i, cl := range all {
		if err := cl.CheckInvariants(); err != nil {
			t.Fatalf("branch %d: %v", i, err)
		}
	}
}
