package cluster

import "testing"

// benchForkCluster builds the paper-scale ledger the fork benchmarks run
// against: 1490 nodes, 16 shards, every node busy with a live allocation and
// every fourth node lending — a loaded mid-run state, not an empty one, so
// the snapshot cost includes realistic treap and bitset population.
func benchForkCluster(b *testing.B) *Cluster {
	b.Helper()
	c := NewMixed(Config{Nodes: 1490, Cores: 32, NormalMB: 65536}, 16)
	for i := 0; i < c.Len(); i++ {
		id := NodeID(i)
		if err := c.StartJob(id, i); err != nil {
			b.Fatal(err)
		}
		if err := c.AllocLocal(id, int64(8+i%32)*1024); err != nil {
			b.Fatal(err)
		}
		if i%4 == 0 {
			if err := c.Lend(id, 4096); err != nil {
				b.Fatal(err)
			}
		}
	}
	return c
}

// BenchmarkFork measures the copy-on-write snapshot machinery at paper scale:
// the O(S) fork itself, the zero-allocation read path on a freshly shared
// ledger, and the one-time cost a branch pays on its first write (node-slice
// materialisation plus one shard thaw).
func BenchmarkFork(b *testing.B) {
	// snapshot: Cluster.Fork on the loaded ledger. O(shards), no node or
	// index data copied — this is the cost a what-if branch pays up front.
	b.Run("snapshot", func(b *testing.B) {
		c := benchForkCluster(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if f := c.Fork(); f == nil {
				b.Fatal("nil fork")
			}
		}
	})

	// no-write-read: aggregate and per-node reads on a forked ledger must
	// not materialise anything — the frozen arrays serve reads directly.
	// The AllocsPerRun guard turns an accidental copy on the read path into
	// a benchmark failure, not just a silently slower number.
	b.Run("no-write-read", func(b *testing.B) {
		c := benchForkCluster(b)
		f := c.Fork()
		read := func() {
			if f.TotalFreeMB() < 0 || f.IdleComputeCount() < 0 {
				b.Fatal("impossible ledger state")
			}
			if n := f.Node(NodeID(b.N % f.Len())); n.CapacityMB == 0 {
				b.Fatal("unpopulated node")
			}
		}
		if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
			b.Fatalf("no-write read path allocated (%v allocs/op); the CoW fast path must stay free", allocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read()
		}
	})

	// first-write: fork plus a single mutation — the branch's worst-case
	// first touch, which materialises the whole node slice and thaws the
	// written shard. Later writes to the same shard are ordinary.
	b.Run("first-write", func(b *testing.B) {
		c := benchForkCluster(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := c.Fork()
			if err := f.ReleaseLocal(0, 1); err != nil {
				b.Fatal(err)
			}
			nodes, thaws := f.CowStats()
			if nodes != 1 || thaws != 1 {
				b.Fatalf("first write: CowStats = (%d, %d), want (1, 1)", nodes, thaws)
			}
		}
	})
}
