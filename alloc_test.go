package relidev_test

import (
	"context"
	"testing"

	"relidev"
)

// opAllocs measures the heap allocations of one ReadBlock and one
// WriteBlock through site 0 of an in-process voting n=5 cluster built
// with opts, the ops walking through the blocks in turn.
func opAllocs(t *testing.T, opts ...relidev.Option) (read, write float64) {
	t.Helper()
	const n, blocks = 5, 256
	opts = append([]relidev.Option{relidev.WithGeometry(relidev.Geometry{BlockSize: 512, NumBlocks: blocks})}, opts...)
	cluster, err := relidev.New(n, relidev.Voting, opts...)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := cluster.Device(0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	payload := make([]byte, 512)
	var next relidev.Index
	write = testing.AllocsPerRun(100, func() {
		if err := dev.WriteBlock(ctx, next%blocks, payload); err != nil {
			t.Fatal(err)
		}
		next++
	})
	read = testing.AllocsPerRun(100, func() {
		if _, err := dev.ReadBlock(ctx, next%blocks); err != nil {
			t.Fatal(err)
		}
		next++
	})
	return read, write
}

// TestMeteringAllocs guards the metered op path: per read and per
// write, metering may add at most 2 heap allocations over the bare
// cluster, and metering with tracing at most 8.
func TestMeteringAllocs(t *testing.T) {
	bareR, bareW := opAllocs(t)
	metR, metW := opAllocs(t, relidev.WithMetering())
	trR, trW := opAllocs(t, relidev.WithTracing(4096))
	t.Logf("allocs/op read: bare %.1f metered %.1f traced %.1f", bareR, metR, trR)
	t.Logf("allocs/op write: bare %.1f metered %.1f traced %.1f", bareW, metW, trW)
	for _, c := range []struct {
		name       string
		got, bare  float64
		extraLimit float64
	}{
		{"metered read", metR, bareR, 2},
		{"metered write", metW, bareW, 2},
		{"traced read", trR, bareR, 8},
		{"traced write", trW, bareW, 8},
	} {
		if c.got-c.bare > c.extraLimit {
			t.Errorf("%s: %.1f allocs/op, bare %.1f: metering adds %.1f, limit %.0f", c.name, c.got, c.bare, c.got-c.bare, c.extraLimit)
		}
	}
}
