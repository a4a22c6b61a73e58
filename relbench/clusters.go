package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"path/filepath"
	"time"

	"relidev"
	"relidev/internal/availcopy"
	"relidev/internal/block"
	"relidev/internal/core"
	"relidev/internal/obs"
	"relidev/internal/protocol"
	"relidev/internal/rpcnet"
	"relidev/internal/scheme"
	"relidev/internal/site"
	"relidev/internal/store"
	"relidev/internal/voting"
)

var geometry = relidev.Geometry{BlockSize: blockSize, NumBlocks: numBlocks}

// restartedSite is the site the failover schedule and the restart probe
// kill and recover; the clients run on site 0.
const restartedSite = 2

// A cluster is a running reliable device of one workload's shape.
type cluster interface {
	// device is site 0's device, which every client uses.
	device() relidev.Device
	// kill fail-stops the restarted site.
	kill() error
	// restart brings the killed site back comatose and recovers it,
	// returning how long reopening took and how long recovery ran
	// until the site was available.
	restart(ctx context.Context) (reopen, recovery time.Duration, err error)
	// fetch reads one replica's copy of a block, bypassing the scheme;
	// only TCP clusters offer it.
	fetch(ctx context.Context, site, idx int) ([]byte, error)
	close() error
}

// A variant picks which build of the program a pass runs.
type variant int

const (
	metered   variant = iota // public constructors, every site metered
	unmetered                // public constructors, metering off
	traced                   // the metered stack rebuilt with timing decorators
)

// openCluster builds the workload's cluster. dir holds segment stores.
func openCluster(w benchWorkload, v variant, dir string, tr *tracer) (cluster, error) {
	if !w.tcp {
		return openSim(w, v, tr)
	}
	addrs, err := freeAddrs(w.sites)
	if err != nil {
		return nil, err
	}
	c := &tcpCluster{cfgs: make([]relidev.RemoteConfig, w.sites), sites: make([]remoteSite, w.sites)}
	for i := range c.cfgs {
		cfg := relidev.RemoteConfig{
			Self:     i,
			Peers:    addrs,
			Scheme:   w.scheme,
			Geometry: geometry,
			Metered:  v != unmetered,
		}
		if w.segStores {
			cfg.StoreDir = filepath.Join(dir, fmt.Sprintf("site%d", i))
			cfg.GroupCommitBatch = groupCommitBatch
		}
		c.cfgs[i] = cfg
	}
	c.open = func(cfg relidev.RemoteConfig) (remoteSite, error) { return relidev.OpenRemote(cfg) }
	if v == traced {
		c.open = func(cfg relidev.RemoteConfig) (remoteSite, error) { return openTracedRemote(cfg, tr) }
	}
	for i, cfg := range c.cfgs {
		s, err := c.open(cfg)
		if err != nil {
			c.close()
			return nil, err
		}
		c.sites[i] = s
	}
	return c, nil
}

// freeAddrs picks n free loopback addresses.
func freeAddrs(n int) (map[int]string, error) {
	addrs := make(map[int]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("pick a loopback port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// remoteSite is what the benchmark uses of relidev.RemoteSite; the
// traced build of a site provides the same methods.
type remoteSite interface {
	Device() relidev.Device
	Recover(ctx context.Context) error
	FetchFrom(ctx context.Context, siteID int, idx int) ([]byte, uint64, error)
	Close() error
}

type tcpCluster struct {
	cfgs  []relidev.RemoteConfig
	open  func(relidev.RemoteConfig) (remoteSite, error)
	sites []remoteSite
}

func (c *tcpCluster) device() relidev.Device { return c.sites[0].Device() }

func (c *tcpCluster) kill() error {
	err := c.sites[restartedSite].Close()
	c.sites[restartedSite] = nil
	return err
}

func (c *tcpCluster) restart(ctx context.Context) (time.Duration, time.Duration, error) {
	cfg := c.cfgs[restartedSite]
	cfg.Comatose = true
	t0 := time.Now()
	s, err := c.open(cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("reopen site %d: %w", restartedSite, err)
	}
	c.sites[restartedSite] = s
	t1 := time.Now()
	if err := recoverUntilAvailable(ctx, s.Recover); err != nil {
		return 0, 0, err
	}
	return t1.Sub(t0), time.Since(t1), nil
}

// recoverUntilAvailable calls Recover until the site is available.
func recoverUntilAvailable(ctx context.Context, recover func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for {
		err := recover(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("recover site %d: %w", restartedSite, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *tcpCluster) fetch(ctx context.Context, site, idx int) ([]byte, error) {
	data, _, err := c.sites[0].FetchFrom(ctx, site, idx)
	return data, err
}

func (c *tcpCluster) close() error {
	var first error
	for i, s := range c.sites {
		if s == nil {
			continue
		}
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
		c.sites[i] = nil
	}
	return first
}

// simCluster is an in-process cluster on the zero-latency simnet.
type simCluster struct {
	dev         relidev.Device
	failSite    func() error
	restartSite func(ctx context.Context) error
}

func openSim(w benchWorkload, v variant, tr *tracer) (cluster, error) {
	if v != traced {
		opts := []relidev.Option{relidev.WithGeometry(geometry)}
		if v == metered {
			opts = append(opts, relidev.WithMetering())
		}
		c, err := relidev.New(w.sites, w.scheme, opts...)
		if err != nil {
			return nil, err
		}
		dev, err := c.Device(0)
		if err != nil {
			return nil, err
		}
		return &simCluster{
			dev:         dev,
			failSite:    func() error { return c.Fail(restartedSite) },
			restartSite: func(ctx context.Context) error { return c.Restart(ctx, restartedSite) },
		}, nil
	}
	kind := core.Voting
	if w.scheme == relidev.AvailableCopy {
		kind = core.AvailableCopy
	}
	c, err := core.NewCluster(core.ClusterConfig{
		Sites:    w.sites,
		Geometry: geometry,
		Scheme:   kind,
		Observer: obs.New(),
		WrapTransport: func(t protocol.Transport) protocol.Transport {
			return &tracedTransport{inner: t, tr: tr}
		},
		NewStore: func(id protocol.SiteID, geom block.Geometry) (store.Store, error) {
			st, err := store.NewMem(geom)
			if err != nil {
				return nil, err
			}
			return tr.wrapStore(id, outer, st), nil
		},
	})
	if err != nil {
		return nil, err
	}
	dev, err := c.Device(0)
	if err != nil {
		return nil, err
	}
	tr.simnet = c.Network()
	return &simCluster{
		dev:         &tracedDevice{inner: dev, tr: tr},
		failSite:    func() error { return c.Fail(restartedSite) },
		restartSite: func(ctx context.Context) error { return c.Restart(ctx, restartedSite) },
	}, nil
}

func (c *simCluster) device() relidev.Device { return c.dev }
func (c *simCluster) kill() error            { return c.failSite() }
func (c *simCluster) close() error           { return nil }

func (c *simCluster) restart(ctx context.Context) (time.Duration, time.Duration, error) {
	t0 := time.Now()
	err := c.restartSite(ctx)
	return 0, time.Since(t0), err
}

func (c *simCluster) fetch(context.Context, int, int) ([]byte, error) {
	return nil, errors.New("in-process clusters have no per-replica fetch")
}

// tracedSite is one TCP site assembled from the internal packages the
// way relidev.OpenRemote assembles it for a metered site, with timing
// decorators at the device, transport, handler and store boundaries.
// OpenRemote's passive extras (the flight recorder and the health and
// telemetry engines, which the benchmark does not enable) are left out.
type tracedSite struct {
	self    protocol.SiteID
	replica *site.Replica
	server  *rpcnet.Server
	client  *rpcnet.Client
	ctrl    scheme.Controller
	dev     relidev.Device
}

func openTracedRemote(cfg relidev.RemoteConfig, tr *tracer) (*tracedSite, error) {
	self := protocol.SiteID(cfg.Self)
	observer := obs.New(obs.WithTracing(4096))
	var st store.Store
	var err error
	if cfg.StoreDir != "" {
		st, err = store.OpenSeg(cfg.StoreDir)
		if errors.Is(err, store.ErrNoSegments) || isNotExist(err) {
			st, err = store.CreateSeg(cfg.StoreDir, cfg.Geometry)
		}
	} else {
		st, err = store.NewMem(cfg.Geometry)
	}
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	if cfg.GroupCommitBatch > 0 {
		st = tr.wrapStore(self, inner, st)
		st = store.NewBatcher(st, store.BatchPolicy{
			MaxDelay: cfg.GroupCommitDelay,
			MaxBatch: cfg.GroupCommitBatch,
		}, batchObsOpts(observer, self, tr)...)
	}
	st = tr.wrapStore(self, outer, st)

	initial := protocol.StateAvailable
	if cfg.Comatose {
		initial = protocol.StateComatose
	}
	replica, err := site.New(site.Config{ID: self, Store: st, InitialState: initial})
	if err != nil {
		st.Close()
		return nil, err
	}
	addrs := make(map[protocol.SiteID]string, len(cfg.Peers))
	ids := make([]protocol.SiteID, 0, len(cfg.Peers))
	for id := 0; id < len(cfg.Peers); id++ {
		addrs[protocol.SiteID(id)] = cfg.Peers[id]
		ids = append(ids, protocol.SiteID(id))
	}
	client, err := rpcnet.NewClient(self, addrs, cfg.Timeout)
	if err != nil {
		st.Close()
		return nil, err
	}
	weights := make([]int64, len(ids))
	for i := range weights {
		weights[i] = 1000
	}
	if len(ids)%2 == 0 {
		weights[0]++
	}
	var transport protocol.Transport = &tracedTransport{inner: client, tr: tr}
	transport = obs.WrapTransport(observer, "rpc", transport, ids)
	env := scheme.Env{Self: replica, Transport: transport, Sites: ids, Weights: weights}
	env.Obs = observer.SchemeSite(cfg.Scheme.String(), self)
	replica.SetWTransitionHook(env.Obs.WTransition)
	if hook := observer.HandleHook(cfg.Scheme.String(), self); hook != nil {
		replica.SetHandleHook(hook)
	}
	var ctrl scheme.Controller
	switch cfg.Scheme {
	case relidev.Voting:
		ctrl, err = voting.New(env)
	case relidev.AvailableCopy:
		ctrl, err = availcopy.New(env)
	default:
		err = fmt.Errorf("scheme %v is not benchmarked", cfg.Scheme)
	}
	if err != nil {
		client.Close()
		st.Close()
		return nil, err
	}
	server, err := rpcnet.Serve(cfg.Peers[cfg.Self], &tracedHandler{inner: replica, tr: tr})
	if err != nil {
		client.Close()
		st.Close()
		return nil, err
	}
	dev, err := core.NewReliableDevice(cfg.Geometry, ctrl)
	if err != nil {
		server.Close()
		client.Close()
		st.Close()
		return nil, err
	}
	replica.SetTelemetryHook(func() []byte { return obs.EncodeSnapshot(observer.Snapshot()) })
	return &tracedSite{
		self: self, replica: replica, server: server, client: client, ctrl: ctrl,
		dev: &tracedDevice{inner: dev, tr: tr},
	}, nil
}

// batchObsOpts wires a group-commit batcher to the site's observer as
// relidev.OpenRemote does — occupancy gauge plus the store phase
// histograms — and additionally hands each flush's stats to the tracer.
func batchObsOpts(observer *obs.Observer, id protocol.SiteID, tr *tracer) []store.BatchOption {
	site := obs.L("site", id.String())
	g := observer.Registry().Gauge(obs.MetricGroupCommitOccupancy, site)
	qw := observer.Registry().Histogram(obs.MetricStorePhase, site, obs.L("phase", obs.StorePhaseQueueWait))
	ap := observer.Registry().Histogram(obs.MetricStorePhase, site, obs.L("phase", obs.StorePhaseApply))
	fs := observer.Registry().Histogram(obs.MetricStorePhase, site, obs.L("phase", obs.StorePhaseFsync))
	return []store.BatchOption{
		store.WithFlushObserver(func(n int) { g.Set(int64(n)) }),
		store.WithFlushStats(func(st store.FlushStats) {
			for _, w := range st.QueueWaitNs {
				qw.Observe(w)
			}
			ap.Observe(st.ApplyNs)
			if st.SyncNs > 0 {
				fs.Observe(st.SyncNs)
			}
			tr.flushStats(st)
		}, observer.Now),
	}
}

func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

func (s *tracedSite) Device() relidev.Device { return s.dev }

func (s *tracedSite) Recover(ctx context.Context) error { return s.ctrl.Recover(ctx) }

func (s *tracedSite) FetchFrom(ctx context.Context, siteID int, idx int) ([]byte, uint64, error) {
	resp, err := s.client.Fetch(ctx, s.self, protocol.SiteID(siteID), protocol.FetchRequest{Block: block.Index(idx)})
	if err != nil {
		return nil, 0, err
	}
	f, ok := resp.(protocol.FetchReply)
	if !ok {
		return nil, 0, fmt.Errorf("unexpected fetch reply %T", resp)
	}
	return f.Data, uint64(f.Version), nil
}

func (s *tracedSite) Close() error {
	errServer := s.server.Close()
	errClient := s.client.Close()
	errStore := s.replica.Store().Close()
	return errors.Join(errServer, errClient, errStore)
}
