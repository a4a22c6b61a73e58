package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"relidev"
	"relidev/internal/block"
	"relidev/internal/core"
	"relidev/internal/obs"
	"relidev/internal/protocol"
	"relidev/internal/rpcnet"
	"relidev/internal/simnet"
	"relidev/internal/site"
	"relidev/internal/store"
)

// optionalInterfaces lists every interface the program type-asserts a
// Store, Transport, Handler or Device against. A decorator that hid
// one would make the traced run a different program: a Batcher over a
// store decorator without Sync never fsyncs.
var optionalInterfaces = []reflect.Type{
	reflect.TypeOf((*store.Syncer)(nil)).Elem(),
}

func assertSameOptional(t *testing.T, name string, wrapped, decorator any) {
	t.Helper()
	for _, it := range optionalInterfaces {
		w := reflect.TypeOf(wrapped).Implements(it)
		d := reflect.TypeOf(decorator).Implements(it)
		if w != d {
			t.Errorf("%s: wrapped implements %v = %v, decorator = %v", name, it, w, d)
		}
	}
}

func TestDecoratorsExposeWrappedOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	dir := t.TempDir()
	mem, err := store.NewMem(geometry)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := store.CreateSeg(filepath.Join(dir, "seg"), geometry)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	file, err := store.CreateFile(filepath.Join(dir, "file.img"), geometry)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	batcher := store.NewBatcher(mem, store.BatchPolicy{MaxBatch: 4})
	defer batcher.Close()
	for name, st := range map[string]store.Store{"mem": mem, "seg": seg, "file": file, "batcher": batcher} {
		assertSameOptional(t, "store "+name, st, tr.wrapStore(0, inner, st))
	}

	client, err := rpcnet.NewClient(0, map[protocol.SiteID]string{0: "127.0.0.1:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for name, tp := range map[string]protocol.Transport{"rpcnet": client, "simnet": simnet.New(simnet.Multicast)} {
		assertSameOptional(t, "transport "+name, tp, &tracedTransport{inner: tp, tr: tr})
	}
	rep, err := site.New(site.Config{ID: 0, Store: mem})
	if err != nil {
		t.Fatal(err)
	}
	assertSameOptional(t, "handler", rep, &tracedHandler{inner: rep, tr: tr})
	c, err := core.NewCluster(core.ClusterConfig{Sites: 1, Geometry: geometry, Scheme: core.Voting})
	if err != nil {
		t.Fatal(err)
	}
	dev, err := c.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameOptional(t, "device", dev, &tracedDevice{inner: dev, tr: tr})
}

// A Batcher above the store decorator must still fsync every batch.
func TestBatcherOverDecoratorStillSyncs(t *testing.T) {
	tr := newTracer()
	seg, err := store.CreateSeg(filepath.Join(t.TempDir(), "seg"), geometry)
	if err != nil {
		t.Fatal(err)
	}
	b := store.NewBatcher(tr.wrapStore(0, inner, seg), store.BatchPolicy{MaxBatch: 8})
	buf := make([]byte, blockSize)
	for i := 0; i < 5; i++ {
		encodePayload(buf, block.Index(i), 1)
		if err := b.Write(block.Index(i), buf, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	got := tr.snapshot().storeTotals(inner, -1)
	if got.write.n != 5 || got.sync.n != 5 {
		t.Fatalf("sequential writes through the batcher: %d writes, %d syncs; want 5 and 5", got.write.n, got.sync.n)
	}
}

// counts are the tallies the traced run derives from its spans, in the
// form the untraced program's own metering reports them.
type counts struct {
	calls   [numMethods]uint64
	legs    uint64
	flushes uint64
	syncs   uint64
}

// runSequential drives one client through n generated operations, one
// at a time, so every run issues exactly the same messages.
func runSequential(t *testing.T, c cluster, w benchWorkload, n int) {
	t.Helper()
	lists, err := generate(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	cl := &client{dev: c.device(), chk: &checker{}, ops: lists[0], buf: make([]byte, blockSize)}
	var st clientStats
	for i := 0; i < n; i++ {
		o := cl.ops[i]
		cl.do(context.Background(), o.index(), o.write(), &st)
	}
	if st.failed > 0 || st.badReads > 0 {
		t.Fatalf("sequential run: %d failed calls, %d bad reads (%s)", st.failed, st.badReads, st.firstBad)
	}
}

// untracedCounts reads the same tallies from every site's metering.
func untracedCounts(t *testing.T, c *tcpCluster) counts {
	t.Helper()
	var out counts
	for _, s := range c.sites {
		h, err := s.(*relidev.RemoteSite).DebugHandler()
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var snap obs.Snapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		for m, name := range methodNames {
			out.calls[m] += snap.CounterTotal(obs.MetricTransportOps, obs.L("method", name))
		}
		for _, h := range snap.Histograms {
			switch {
			case h.Name == obs.MetricPeerRTT, h.Name == obs.MetricTransportPeerLatency:
				out.legs += h.Count
			case h.Name == obs.MetricStorePhase && h.Labels["phase"] == obs.StorePhaseApply:
				out.flushes += h.Count
			case h.Name == obs.MetricStorePhase && h.Labels["phase"] == obs.StorePhaseFsync:
				out.syncs += h.Count
			}
		}
	}
	return out
}

func TestTracedCountsMatchUntracedMetering(t *testing.T) {
	const n = 300
	for _, name := range []string{"tcp-mixed", "ac-failover"} {
		t.Run(name, func(t *testing.T) {
			w := workloads[name]
			dir := t.TempDir()
			plain, err := openCluster(w, metered, filepath.Join(dir, "plain"), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.close()
			runSequential(t, plain, w, n)
			want := untracedCounts(t, plain.(*tcpCluster))

			tr := newTracer()
			tc, err := openCluster(w, traced, filepath.Join(dir, "traced"), tr)
			if err != nil {
				t.Fatal(err)
			}
			defer tc.close()
			runSequential(t, tc, w, n)
			m := tr.snapshot()
			got := counts{calls: m.calls, legs: m.opLegs[0] + m.opLegs[1], flushes: m.flushes, syncs: m.storeTotals(inner, -1).sync.n}
			if got != want {
				t.Fatalf("traced spans %+v, untraced metering %+v", got, want)
			}
			if m.ops[0].n+m.ops[1].n != n {
				t.Fatalf("traced %d device ops, want %d", m.ops[0].n+m.ops[1].n, n)
			}
			if w.segStores && got.syncs == 0 {
				t.Fatal("segment-store workload recorded no fsync")
			}
		})
	}
}

func TestCheckerAcceptsOnlyUnreplacedWrites(t *testing.T) {
	var c checker
	const idx = block.Index(3)
	if !c.valid(idx, 0, 10) {
		t.Fatal("initial zeros rejected before any write")
	}
	a := c.begin(idx, 10)
	if !c.valid(idx, a, 11) || !c.valid(idx, 0, 11) {
		t.Fatal("in-flight write or prior zeros rejected")
	}
	c.end(idx, a, 20, true)
	if c.valid(idx, 0, 21) {
		t.Fatal("zeros accepted after an acknowledged write")
	}
	if !c.valid(idx, 0, 15) {
		t.Fatal("zeros rejected for a read that began before the write was acknowledged")
	}
	failed := c.begin(idx, 30)
	c.end(idx, failed, 40, false)
	if !c.valid(idx, a, 41) || !c.valid(idx, failed, 41) {
		t.Fatal("an unacknowledged write must neither replace nor be ruled out")
	}
	b := c.begin(idx, 50)
	c.end(idx, b, 60, true)
	if c.valid(idx, a, 61) || c.valid(idx, failed, 61) {
		t.Fatal("writes replaced by an acknowledged write accepted")
	}
	if !c.valid(idx, a, 55) {
		t.Fatal("write rejected for a read that began before its replacement was acknowledged")
	}
	if c.valid(idx, 99, 61) {
		t.Fatal("never-issued write accepted")
	}
}

func TestPayloadRoundTripAndTornDetection(t *testing.T) {
	buf := make([]byte, blockSize)
	encodePayload(buf, 9, 42)
	if seq, err := decodePayload(buf, 9); err != nil || seq != 42 {
		t.Fatalf("decode = %d, %v", seq, err)
	}
	if _, err := decodePayload(buf, 8); err == nil {
		t.Fatal("payload of block 9 accepted for block 8")
	}
	buf[300] ^= 1
	if _, err := decodePayload(buf, 9); err == nil {
		t.Fatal("torn payload accepted")
	}
}

func TestHistQuantilesTrackExactRanks(t *testing.T) {
	var h hist
	var xs []int64
	for i := int64(1); i <= 20000; i++ {
		v := i * i % 1_000_003
		h.add(v)
		xs = append(xs, v)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for _, q := range []float64{0.5, 0.99} {
		exact := xs[int(float64(len(xs))*q+0.999999)-1]
		got, ok := h.quantile(q)
		if !ok || got < float64(exact)*0.98 || got > float64(exact)*1.02 {
			t.Fatalf("q%.2f: hist %.1f (reportable %v), exact %d", q, got, ok, exact)
		}
	}
	for v := int64(0); v < 1<<20; v = v*3 + 1 {
		lo, w := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Fatalf("%d placed in bucket [%v, %v)", v, lo, lo+w)
		}
	}
}

// Both kinds of run report exactly the metrics BENCHMARK.json names,
// with its units.
func TestResultsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	w := workloads["sim-cpu"]
	for _, tc := range []struct {
		run  func(context.Context, benchWorkload, int64, time.Duration, string) (*result, error)
		want []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		r, err := tc.run(context.Background(), w, 1, 2*time.Second, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Attempted == 0 {
			t.Fatalf("run not correct: %+v", r)
		}
		if len(r.Metrics) != len(tc.want) {
			t.Errorf("run reports %d metrics, BENCHMARK.json names %d", len(r.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("metric %s: reported %v (unit %q), want unit %q", m.Name, ok, got.Unit, m.Unit)
			}
		}
	}
}

// A read that stalls while many later writes are acknowledged may
// still return the write that was current when it began.
func TestCheckerRemembersWritesAStalledReadMayReturn(t *testing.T) {
	var c checker
	const idx = block.Index(1)
	first := c.begin(idx, nowNs())
	c.end(idx, first, nowNs(), true)
	t0 := c.readStart(0)
	for i := 0; i < 100; i++ {
		s := c.begin(idx, nowNs())
		c.end(idx, s, nowNs(), true)
	}
	if !c.valid(idx, first, t0) {
		t.Fatal("write replaced after a stalled read began was forgotten")
	}
	c.readEnd(0)
	s := c.begin(idx, nowNs())
	c.end(idx, s, nowNs(), true)
	if n := len(c.blocks[idx].dead); n > 1 {
		t.Fatalf("%d replaced writes kept with no read running", n)
	}
}
