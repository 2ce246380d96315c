package shuffle

import (
	"fmt"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/merge"
	"repro/internal/transport"
)

// JBSConfig configures the JBS shuffle plugin.
type JBSConfig struct {
	// Transport accepts only "" or "tcp"; anything else is an error. TCP
	// is the one transport. The field is kept because the repository
	// benchmark sets it, and is removed by ROADMAP item 3(b)'s benchmark
	// change.
	Transport string
	// BufferSize is the transport buffer size in bytes, the Fig. 11 knob
	// (0 = transport.DefaultBufferSize). The supplier rejects a size
	// that does not fit in one frame.
	BufferSize int
	// FetchRetries re-sends failed fetches on fresh connections before
	// surfacing an error.
	FetchRetries int
}

func (c *JBSConfig) applyDefaults() error {
	if c.Transport != "" && c.Transport != "tcp" {
		return fmt.Errorf("shuffle: JBSConfig.Transport %q: only \"tcp\" is supported", c.Transport)
	}
	return nil
}

// JBSProvider plugs JVM-Bypass Shuffling into the engine: one MOFSupplier
// and one NetMerger per node, both native components launched by the
// TaskTracker in the paper (Section III-A), over TCP.
type JBSProvider struct {
	cfg JBSConfig

	mu        sync.Mutex
	suppliers map[string]*core.MOFSupplier
	mergers   map[string]*core.NetMerger
}

// NewJBSProvider builds the JBS provider.
func NewJBSProvider(cfg JBSConfig) (*JBSProvider, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	return &JBSProvider{
		cfg:       cfg,
		suppliers: make(map[string]*core.MOFSupplier),
		mergers:   make(map[string]*core.NetMerger),
	}, nil
}

// Name returns "jbs-tcp".
func (p *JBSProvider) Name() string { return "jbs-tcp" }

// StartNode launches the node's MOFSupplier.
func (p *JBSProvider) StartNode(node string, reg *mapred.MOFRegistry) (string, func() error, error) {
	lookup := func(task string) (string, string, error) {
		paths, ok := reg.Lookup(task)
		if !ok {
			return "", "", fmt.Errorf("no MOF registered for %s", task)
		}
		return paths.Data, paths.Index, nil
	}
	s, err := core.NewMOFSupplier(core.SupplierConfig{
		Transport:  transport.NewTCP(),
		Addr:       "127.0.0.1:0",
		BufferSize: p.cfg.BufferSize,
	}, lookup)
	if err != nil {
		return "", nil, err
	}
	p.mu.Lock()
	p.suppliers[node] = s
	p.mu.Unlock()
	return s.Addr(), s.Close, nil
}

// NewFetcher launches the node's NetMerger.
func (p *JBSProvider) NewFetcher(node string, addrOf func(string) (string, error)) (mapred.Fetcher, error) {
	m, err := core.NewNetMerger(core.MergerConfig{
		Transport:  transport.NewTCP(),
		MaxRetries: p.cfg.FetchRetries,
	})
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.mergers[node] = m
	p.mu.Unlock()
	return &jbsFetcher{m: m, addrOf: addrOf, lent: make(map[string][]*bufpool.Lease)}, nil
}

// NewMerger pairs JBS with the network-levitated merger: shuffle data
// never spills to disk.
func (p *JBSProvider) NewMerger(spillDir string) (merge.Merger, error) {
	return merge.NewNetLevitatedMerger(), nil
}

// SupplierStats returns a node's supplier counters (zero value if absent).
func (p *JBSProvider) SupplierStats(node string) core.SupplierStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.suppliers[node]; ok {
		return s.Stats()
	}
	return core.SupplierStats{}
}

// MergerStats returns a node's NetMerger counters (zero value if absent).
func (p *JBSProvider) MergerStats(node string) core.MergerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m, ok := p.mergers[node]; ok {
		return m.Stats()
	}
	return core.MergerStats{}
}

// jbsFetcher adapts the NetMerger to the engine's Fetcher interface.
type jbsFetcher struct {
	m      *core.NetMerger
	addrOf func(string) (string, error)

	mu sync.Mutex
	// lent holds, per reduce task, the leases behind every segment
	// delivered to it: the task's merger reads them in place until the
	// engine calls Release.
	lent map[string][]*bufpool.Lease
}

func (f *jbsFetcher) Fetch(reduceTask string, segs []mapred.SegmentID, deliver func(mapred.SegmentID, []byte) error) error {
	specs := make([]core.FetchSpec, 0, len(segs))
	back := make(map[core.FetchSpec]mapred.SegmentID, len(segs))
	for _, s := range segs {
		addr, err := f.addrOf(s.Host)
		if err != nil {
			return err
		}
		spec := core.FetchSpec{Addr: addr, MapTask: s.MapTask, Partition: s.Partition}
		specs = append(specs, spec)
		back[spec] = s
	}
	var got []*bufpool.Lease
	err := f.m.FetchLeases(specs, func(spec core.FetchSpec, data []byte, owner *bufpool.Lease) error {
		got = append(got, owner)
		return deliver(back[spec], data)
	})
	f.mu.Lock()
	f.lent[reduceTask] = append(f.lent[reduceTask], got...)
	f.mu.Unlock()
	return err
}

func (f *jbsFetcher) Release(reduceTask string) {
	f.mu.Lock()
	leases := f.lent[reduceTask]
	delete(f.lent, reduceTask)
	f.mu.Unlock()
	for _, l := range leases {
		l.Release()
	}
}

func (f *jbsFetcher) Close() error { return f.m.Close() }

// Interface check.
var _ mapred.ShuffleProvider = (*JBSProvider)(nil)
