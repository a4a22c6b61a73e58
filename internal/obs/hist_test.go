package obs

import (
	"math/rand"
	"sync"
	"testing"
)

func TestBucketFor(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{1, 0},
		{1024, 0},
		{1025, 1},
		{2048, 1},
		{2049, 2},
		{1 << 62, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.ns); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	h.Observe(-5) // clamped to 0
	h.Observe(500)
	h.Observe(3000)
	p := h.snapshotPoint()
	if p.Count != 3 {
		t.Fatalf("count = %d, want 3", p.Count)
	}
	if p.Sum != 3500 {
		t.Fatalf("sum = %d, want 3500", p.Sum)
	}
	var total uint64
	for _, b := range p.Buckets {
		total += b.Count
	}
	if total != p.Count {
		t.Fatalf("bucket total %d != count %d", total, p.Count)
	}
	if p.Mean() != 3500.0/3.0 {
		t.Fatalf("mean = %v", p.Mean())
	}
}

// TestHistogramConcurrentMerge is the record+merge property test: with
// G goroutines each recording K observations concurrently with
// snapshot readers, every observation must land in exactly one shard,
// and the merged snapshot must equal the sum over shards — no loss, no
// double count. Run under -race this also proves the record path and
// the merge never touch non-atomic shared state.
func TestHistogramConcurrentMerge(t *testing.T) {
	const (
		goroutines = 8
		perG       = 5000
	)
	var h Histogram
	var wantSum uint64
	sums := make([]uint64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			var local uint64
			for i := 0; i < perG; i++ {
				ns := rng.Int63n(1 << 30)
				local += uint64(ns)
				h.Observe(ns)
			}
			sums[g] = local
		}(g)
	}
	// Concurrent readers: merged totals are monotone and internally
	// consistent even mid-record.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var lastCount uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			p := h.snapshotPoint()
			if p.Count < lastCount {
				t.Errorf("merged count went backwards: %d -> %d", lastCount, p.Count)
				return
			}
			lastCount = p.Count
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}

	for _, s := range sums {
		wantSum += s
	}
	p := h.snapshotPoint()
	if p.Count != goroutines*perG {
		t.Fatalf("merged count = %d, want %d", p.Count, goroutines*perG)
	}
	if p.Sum != wantSum {
		t.Fatalf("merged sum = %d, want %d", p.Sum, wantSum)
	}
	// The merge is a pure addition over shards: per-shard totals must
	// add up to the merged point exactly.
	counts, shardSums := h.shardTotals()
	var cTot, sTot uint64
	for i := range counts {
		cTot += counts[i]
		sTot += shardSums[i]
	}
	if cTot != p.Count || sTot != p.Sum {
		t.Fatalf("shard totals (%d, %d) != merged (%d, %d)", cTot, sTot, p.Count, p.Sum)
	}
	var bTot uint64
	for _, b := range p.Buckets {
		bTot += b.Count
	}
	if bTot != p.Count {
		t.Fatalf("bucket total %d != merged count %d", bTot, p.Count)
	}
}

// TestHistogramShardsSpreadGrownStacks: concurrent goroutines whose
// stacks have grown (stacks are aligned to their size, which defeated
// the old low-bits address sharding) spread their observations over at
// least half the shards.
func TestHistogramShardsSpreadGrownStacks(t *testing.T) {
	const goroutines = 64
	var h Histogram
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	ready.Add(goroutines)
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer done.Done()
			growStack(64, func() {
				// Every goroutine is alive, on its own grown stack, when
				// any of them records.
				ready.Done()
				<-start
				h.Observe(1)
			})
		}()
	}
	ready.Wait()
	close(start)
	done.Wait()
	counts, _ := h.shardTotals()
	used := 0
	var total uint64
	for _, c := range counts {
		total += c
		if c > 0 {
			used++
		}
	}
	if total != goroutines {
		t.Fatalf("recorded %d observations, want %d", total, goroutines)
	}
	if used < 4 {
		t.Fatalf("%d goroutines used %d of %d shards: %v", goroutines, used, histShards, counts)
	}
}

// growStack recurses through depth 1 KiB frames, forcing the goroutine
// onto a grown stack, then calls f from the deepest frame.
func growStack(depth int, f func()) {
	var pad [1024]byte
	pad[depth%len(pad)] = byte(depth)
	if depth == 0 {
		f()
		return
	}
	growStack(depth-1, f)
	_ = pad[depth%len(pad)]
}
