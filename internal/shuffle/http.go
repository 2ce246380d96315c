package shuffle

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/mapred"
	"repro/internal/merge"
	"repro/internal/mof"
)

// HTTPConfig configures the baseline Hadoop-style shuffle.
type HTTPConfig struct {
	// CopiersPerReducer is the number of concurrent MOFCopier fetch
	// threads each ReduceTask runs (Hadoop default: 5).
	CopiersPerReducer int
	// ShuffleMemory is the reduce-side merge budget before spilling.
	ShuffleMemory int64
	// MergeFanIn bounds runs merged per pass.
	MergeFanIn int
	// Tax imposes the JVM stream overhead on served segments (zero rate
	// disables it).
	Tax JVMTax
}

func (c *HTTPConfig) applyDefaults() {
	if c.CopiersPerReducer == 0 {
		c.CopiersPerReducer = 5
	}
	if c.ShuffleMemory == 0 {
		c.ShuffleMemory = 32 << 20
	}
	if c.MergeFanIn == 0 {
		c.MergeFanIn = 10
	}
}

// HTTPProvider is the stock Hadoop shuffle: an HttpServer embedded in each
// TaskTracker spawns HttpServlets that read a segment from disk and then
// transmit it — strictly serialized per request, with no cross-request
// batching (Section III-B, Fig. 4) — while each ReduceTask runs multiple
// MOFCopiers fetching over HTTP.
type HTTPProvider struct {
	cfg HTTPConfig
}

// NewHTTPProvider builds the baseline provider.
func NewHTTPProvider(cfg HTTPConfig) *HTTPProvider {
	cfg.applyDefaults()
	return &HTTPProvider{cfg: cfg}
}

// Name returns "hadoop-http".
func (p *HTTPProvider) Name() string { return "hadoop-http" }

// StartNode starts the node's HttpServer over its MOF registry.
func (p *HTTPProvider) StartNode(node string, reg *mapred.MOFRegistry) (string, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("shuffle: http listen: %w", err)
	}
	h := &servletHandler{reg: reg, tax: p.cfg.Tax, icache: mof.NewIndexCache(256)}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	stop := func() error { return srv.Close() }
	return ln.Addr().String(), stop, nil
}

// servletHandler answers /mapOutput requests the way an HttpServlet does:
// locate the segment via the index (IndexCache), read it fully from disk,
// then transmit — read and xmit serialized within the request.
type servletHandler struct {
	reg    *mapred.MOFRegistry
	tax    JVMTax
	icache *mof.IndexCache
}

func (h *servletHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/mapOutput" {
		http.NotFound(w, r)
		return
	}
	task := r.URL.Query().Get("map")
	partition, err := strconv.Atoi(r.URL.Query().Get("reduce"))
	if err != nil {
		http.Error(w, "bad reduce parameter", http.StatusBadRequest)
		return
	}
	paths, ok := h.reg.Lookup(task)
	if !ok {
		http.Error(w, "unknown map output "+task, http.StatusNotFound)
		return
	}
	ix, err := h.icache.Get(paths.Index)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	entry, err := ix.Entry(partition)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Serialized request processing: the disk read completes before the
	// first byte is transmitted, through the (taxed) Java stream stack.
	data, err := mof.ReadSegmentBytes(paths.Data, entry)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	taxed := h.tax.Reader(bytes.NewReader(data))
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	io.Copy(w, taxed)
}

// NewFetcher creates the node's MOFCopier pool factory.
func (p *HTTPProvider) NewFetcher(node string, addrOf func(string) (string, error)) (mapred.Fetcher, error) {
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: p.cfg.CopiersPerReducer,
			IdleConnTimeout:     30 * time.Second,
		},
	}
	return &httpFetcher{cfg: p.cfg, client: client, addrOf: addrOf, tax: p.cfg.Tax}, nil
}

// NewMerger pairs the baseline with the disk-spill merger.
func (p *HTTPProvider) NewMerger(spillDir string) (merge.Merger, error) {
	return merge.NewSpillMerger(spillDir, p.cfg.ShuffleMemory, p.cfg.MergeFanIn)
}

// httpFetcher runs MOFCopier threads for each Fetch (each ReduceTask).
// Unlike JBS there is no cross-reducer consolidation: every ReduceTask's
// copiers open their own connections.
type httpFetcher struct {
	cfg    HTTPConfig
	client *http.Client
	addrOf func(string) (string, error)
	tax    JVMTax
}

type copierResult struct {
	seg  mapred.SegmentID
	data []byte
	err  error
}

// Fetch spawns the copier pool and delivers results from the calling
// goroutine as they complete.
func (f *httpFetcher) Fetch(reduceTask string, segs []mapred.SegmentID, deliver func(mapred.SegmentID, []byte) error) error {
	if len(segs) == 0 {
		return nil
	}
	work := make(chan mapred.SegmentID, len(segs))
	for _, s := range segs {
		work <- s
	}
	close(work)
	results := make(chan copierResult, len(segs))
	var wg sync.WaitGroup
	copiers := f.cfg.CopiersPerReducer
	if copiers > len(segs) {
		copiers = len(segs)
	}
	for i := 0; i < copiers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				data, err := f.copyOne(s)
				results <- copierResult{seg: s, data: data, err: err}
			}
		}()
	}
	go func() { wg.Wait(); close(results) }()

	var firstErr error
	for res := range results {
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		if firstErr == nil {
			if err := deliver(res.seg, res.data); err != nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// copyOne performs one HTTP GET for a segment, applying the client-side
// half of the JVM tax.
func (f *httpFetcher) copyOne(s mapred.SegmentID) ([]byte, error) {
	addr, err := f.addrOf(s.Host)
	if err != nil {
		return nil, err
	}
	url := fmt.Sprintf("http://%s/mapOutput?map=%s&reduce=%d", addr, s.MapTask, s.Partition)
	resp, err := f.client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("shuffle: GET %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("shuffle: GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	data, err := io.ReadAll(f.tax.Reader(resp.Body))
	if err != nil {
		return nil, fmt.Errorf("shuffle: reading %s: %w", url, err)
	}
	return data, nil
}

// Release is a no-op: copied segments are ordinary heap slices.
func (f *httpFetcher) Release(string) {}

// Close releases idle connections.
func (f *httpFetcher) Close() error {
	f.client.CloseIdleConnections()
	return nil
}

// Interface check.
var _ mapred.ShuffleProvider = (*HTTPProvider)(nil)
