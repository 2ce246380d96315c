package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/flow"
	"repro/internal/transport"
)

// Scripted behaviours of a chunkedSupplier, one per attempt at a fetch id
// (the last repeats).
const (
	chunksAll   = "all"   // the whole segment
	chunksCut   = "cut"   // two chunks, then the connection closes
	chunksErr   = "err"   // two chunks, then a remote-error chunk
	chunksStall = "stall" // two chunks, then silence
)

// chunkedSupplier serves one payload in chunks of chunk bytes, so a test
// can stop a segment half way through its reassembly. It receives with
// Recv and sends with SendVec out of the one payload: nothing it does
// leases from, or allocates in proportion to, the bytes it moves.
type chunkedSupplier struct {
	lis     transport.Listener
	wg      sync.WaitGroup
	payload []byte
	chunk   int
	script  []string

	mu      sync.Mutex
	seen    map[uint64]int
	stalled atomic.Int64 // requests left hanging by chunksStall
}

func newChunkedSupplier(t testing.TB, payload []byte, chunk int, script ...string) *chunkedSupplier {
	t.Helper()
	poolBalanced(t)
	lis, err := transport.NewTCP().Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &chunkedSupplier{lis: lis, payload: payload, chunk: chunk, script: script, seen: map[uint64]int{}}
	s.wg.Add(1)
	go s.acceptLoop()
	t.Cleanup(func() { lis.Close(); s.wg.Wait() })
	return s
}

func (s *chunkedSupplier) Addr() string { return s.lis.Addr() }

func (s *chunkedSupplier) acceptLoop() {
	defer s.wg.Done()
	var conns []transport.Conn
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			for _, c := range conns {
				c.Close() // wakes a serveConn parked in Recv behind a stalled fetch
			}
			return
		}
		conns = append(conns, conn)
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *chunkedSupplier) serveConn(conn transport.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	var hdr [sizedChunkHeaderLen]byte
	vecs := make([][]byte, 2)
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		if len(msg) > 0 && msg[0] == msgCancel {
			continue // what a cancelled fetch was owed stays unsent anyway
		}
		req, err := decodeFetchRequest(msg)
		if err != nil {
			return
		}
		s.mu.Lock()
		n := s.seen[req.ID]
		s.seen[req.ID] = n + 1
		s.mu.Unlock()
		act := s.script[min(n, len(s.script)-1)]
		rest, sent := s.payload, 0
		for first := true; first || len(rest) > 0; first = false {
			if act != chunksAll && sent == 2 {
				break
			}
			part := rest[:min(len(rest), s.chunk)]
			rest = rest[len(part):]
			var flags byte
			if first {
				flags |= flagSized
			}
			if len(rest) == 0 {
				flags |= flagLast
			}
			vecs[0], vecs[1] = appendChunkHeader(hdr[:0], req.ID, flags, int64(len(s.payload)), part), part
			if transport.SendVec(conn, vecs...) != nil {
				return
			}
			sent++
		}
		switch {
		case act == chunksCut:
			return
		case act == chunksErr:
			if conn.Send(encodeDataChunk(dataChunk{ID: req.ID, Last: true, Failed: true, Payload: []byte("scripted failure")})) != nil {
				return
			}
		case act == chunksStall:
			s.stalled.Add(1)
		}
	}
}

// TestFetchGivesBackEveryLease is the ownership contract of the hand-over:
// however a Fetch ends, when it returns the pool has exactly the leases out
// that it had before — every receive lease, every reassembly lease of a
// delivered segment, and every partial one an interrupted attempt left.
func TestFetchGivesBackEveryLease(t *testing.T) {
	payload := make([]byte, 40<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	errDeliver, errAnyFailure := errors.New("deliver refuses"), errors.New("any transport failure")
	cases := []struct {
		name    string
		chunk   int
		script  []string
		cfg     MergerConfig
		deliver error // returned by the first deliver
		closeIt bool  // Close the merger once a fetch hangs
		want    error // nil: every segment delivered intact
	}{
		{name: "delivered", chunk: 4 << 10, script: []string{chunksAll}},
		{name: "delivered-in-one-chunk", chunk: 64 << 10, script: []string{chunksAll}},
		{name: "deliver-error", chunk: 4 << 10, script: []string{chunksAll}, deliver: errDeliver, want: errDeliver},
		{name: "remote-error-mid-segment", chunk: 4 << 10, script: []string{chunksErr}, want: ErrRemote},
		{name: "retries-exhausted", chunk: 4 << 10, script: []string{chunksCut}, cfg: MergerConfig{MaxRetries: 2, RetryBackoff: time.Millisecond}, want: errAnyFailure},
		// One cut costs every fetch in the window an attempt, hence the budget.
		{name: "retry-then-delivered", chunk: 4 << 10, script: []string{chunksCut, chunksAll}, cfg: MergerConfig{MaxRetries: 16, RetryBackoff: time.Millisecond}},
		{name: "deadline-trip", chunk: 4 << 10, script: []string{chunksStall, chunksAll}, cfg: MergerConfig{MaxRetries: 2, RetryBackoff: time.Millisecond, FetchTimeout: 20 * time.Millisecond}},
		{name: "close-mid-batch", chunk: 4 << 10, script: []string{chunksStall}, closeIt: true, want: transport.ErrConnClosed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newChunkedSupplier(t, payload, tc.chunk, tc.script...)
			cfg := tc.cfg
			cfg.Transport = transport.NewTCP()
			m, err := NewNetMerger(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			specs := make([]FetchSpec, 4)
			for i := range specs {
				specs[i] = FetchSpec{Addr: s.Addr(), MapTask: fmt.Sprintf("m-%d", i)}
			}
			closed := make(chan struct{})
			if tc.closeIt {
				go func() {
					defer close(closed)
					for s.stalled.Load() == 0 {
						time.Sleep(time.Millisecond)
					}
					m.Close()
				}()
			}
			before := bufpool.Default().Outstanding()
			delivered := 0
			err = m.Fetch(specs, func(_ FetchSpec, data []byte) error {
				delivered++
				if !bytes.Equal(data, payload) {
					t.Errorf("segment %d differs from what the supplier sent", delivered)
				}
				if delivered == 1 {
					return tc.deliver
				}
				return nil
			})
			if tc.closeIt {
				<-closed // Close fails the batch first and waits for the readers after
			}
			if after := bufpool.Default().Outstanding(); after != before {
				t.Errorf("%d leases outstanding when Fetch returned, %d before it", after, before)
			}
			if tc.want == errAnyFailure && err != nil {
				err = errAnyFailure // reset, EOF or closed: whichever the kernel reported
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Fetch = %v, want %v", err, tc.want)
			}
			if tc.want == nil && delivered != len(specs) {
				t.Fatalf("%d of %d segments delivered", delivered, len(specs))
			}
		})
	}
}

// TestFetchLeasesHandsOverOwnership: a deliver that keeps its leases keeps
// the bytes — no later fetch reuses their buffers — until it releases them.
func TestFetchLeasesHandsOverOwnership(t *testing.T) {
	payload := bytes.Repeat([]byte("owned-until-released-"), 1<<10)
	for _, chunk := range []int{4 << 10, 64 << 10} { // reassembled, and handed over in the receive lease
		s := newChunkedSupplier(t, payload, chunk, chunksAll)
		m, err := NewNetMerger(MergerConfig{Transport: transport.NewTCP()})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		specs := []FetchSpec{{Addr: s.Addr(), MapTask: "a"}, {Addr: s.Addr(), MapTask: "b"}}
		before := bufpool.Default().Outstanding()
		var kept [][]byte
		var owned []*bufpool.Lease
		keep := func(_ FetchSpec, data []byte, owner *bufpool.Lease) error {
			kept, owned = append(kept, data), append(owned, owner)
			return nil
		}
		for round := 0; round < 3; round++ {
			if err := m.FetchLeases(specs, keep); err != nil {
				t.Fatal(err)
			}
		}
		if got := bufpool.Default().Outstanding() - before; got != int64(len(owned)) {
			t.Errorf("chunk %d: %d leases out while the consumer holds %d", chunk, got, len(owned))
		}
		for i, data := range kept {
			if !bytes.Equal(data, payload) {
				t.Fatalf("chunk %d: kept segment %d was overwritten while still owned", chunk, i)
			}
		}
		for _, l := range owned {
			l.Release()
		}
		if after := bufpool.Default().Outstanding(); after != before {
			t.Errorf("chunk %d: %d leases outstanding after the consumer released its own, %d before", chunk, after, before)
		}
	}
}

// TestStreamThatOverrunsItsSegmentFailsOver: chunks that do not add up to
// the size the first one announced are a protocol violation, not a write
// past the reassembly lease.
func TestStreamThatOverrunsItsSegmentFailsOver(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 8<<10)
	for name, frames := range map[string][]dataChunk{
		"overrun":        {{Sized: true, Total: 6 << 10, Payload: payload[:4<<10]}, {Last: true, Payload: payload[:4<<10]}},
		"short":          {{Sized: true, Total: 9 << 10, Payload: payload[:4<<10]}, {Last: true, Payload: payload[:4<<10]}},
		"unsized":        {{Payload: payload[:4<<10]}, {Last: true, Payload: payload[:4<<10]}},
		"one-chunk-lies": {{Sized: true, Last: true, Total: 9 << 10, Payload: payload}},
	} {
		t.Run(name, func(t *testing.T) {
			poolBalanced(t)
			lis, err := transport.NewTCP().Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					conn, err := lis.Accept()
					if err != nil {
						return
					}
					msg, err := conn.Recv()
					if err == nil {
						req, _ := decodeFetchRequest(msg)
						for _, c := range frames {
							c.ID = req.ID
							conn.Send(encodeDataChunk(c))
						}
						conn.Recv() // until the merger hangs up
					}
					conn.Close()
				}
			}()
			defer func() { lis.Close(); wg.Wait() }()
			m, err := NewNetMerger(MergerConfig{Transport: transport.NewTCP()})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			err = m.Fetch([]FetchSpec{{Addr: lis.Addr(), MapTask: "m"}}, func(FetchSpec, []byte) error {
				t.Error("a segment that does not add up was delivered")
				return nil
			})
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("Fetch = %v, want ErrBadMessage", err)
			}
		})
	}
}

// closeWithin fails the test if m.Close does not return: the hang this
// guards against parks Close in wg.Wait behind a reader that nothing will
// ever wake.
func closeWithin(t *testing.T, m *NetMerger, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		m.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<16)
		t.Fatalf("NetMerger.Close still blocked after %v\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// gatedTransport holds every Dial until release is closed.
type gatedTransport struct {
	transport.Transport
	entered chan struct{}
	release chan struct{}
}

func (g *gatedTransport) Dial(addr string) (transport.Conn, error) {
	g.entered <- struct{}{}
	<-g.release
	return g.Transport.Dial(addr)
}

// TestCloseOvertakesFirstDial pins the interleaving behind the Close hang:
// the injector has started a node's reader and is dialing when Close runs.
// The dial used to complete into the closed cache, which cached it, and
// the reader then parked in Recv on a connection nobody would close.
func TestCloseOvertakesFirstDial(t *testing.T) {
	s := newChunkedSupplier(t, bytes.Repeat([]byte("late"), 4<<10), 4<<10, chunksAll)
	g := &gatedTransport{Transport: transport.NewTCP(), entered: make(chan struct{}, 1), release: make(chan struct{})}
	m, err := NewNetMerger(MergerConfig{Transport: g})
	if err != nil {
		t.Fatal(err)
	}
	fetched := make(chan error, 1)
	go func() {
		fetched <- m.Fetch([]FetchSpec{{Addr: s.Addr(), MapTask: "m"}}, func(FetchSpec, []byte) error { return nil })
	}()
	<-g.entered
	go func() {
		for { // until Close has marked the merger closed ...
			m.mu.Lock()
			marked := m.closed
			m.mu.Unlock()
			if marked {
				break
			}
			time.Sleep(time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond) // ... and has got from the flag to cache.Close
		close(g.release)
	}()
	closeWithin(t, m, 10*time.Second)
	if err := <-fetched; !errors.Is(err, transport.ErrConnClosed) {
		t.Fatalf("Fetch across Close = %v, want ErrConnClosed", err)
	}
}

// TestCloseRacesReadersAndHedges closes a merger at a random instant of a
// hedged, multi-chunk batch — while readers start, reassemble and retire
// attempts and the controller launches duplicates — and demands that Close
// returns, Fetch returns, and every lease (the partial reassemblies of
// whatever was in flight included) is back in the pool. Loop it:
// go test -run TestCloseRacesReadersAndHedges -count=200 ./internal/core
func TestCloseRacesReadersAndHedges(t *testing.T) {
	payload := bytes.Repeat([]byte("close-race-segment-"), 2<<10)
	// The primary stalls every fetch two chunks in, so each one leaves a
	// partial reassembly behind and is rescued by a hedge to the replica.
	primary := newChunkedSupplier(t, payload, 4<<10, chunksStall)
	replica := newChunkedSupplier(t, payload, 4<<10, chunksAll)
	for round := 0; round < 10; round++ {
		m, err := NewNetMerger(MergerConfig{
			Transport:    transport.NewTCP(),
			MaxRetries:   2,
			RetryBackoff: time.Millisecond,
			Replicas:     func(FetchSpec) []string { return []string{primary.Addr(), replica.Addr()} },
			Hedge:        &flow.HedgeConfig{Baseline: 200 * time.Microsecond, MinDelay: 100 * time.Microsecond, ScanInterval: 100 * time.Microsecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for batch := 0; ; batch++ {
					specs := make([]FetchSpec, 8)
					for i := range specs {
						specs[i] = FetchSpec{Addr: primary.Addr(), MapTask: fmt.Sprintf("m-%d-%d-%d", c, batch, i)}
					}
					err := m.Fetch(specs, func(_ FetchSpec, data []byte) error {
						if !bytes.Equal(data, payload) {
							t.Error("a delivered segment differs from what the suppliers sent")
						}
						return nil
					})
					if err != nil {
						if !errors.Is(err, transport.ErrConnClosed) {
							t.Errorf("Fetch across Close = %v, want ErrConnClosed", err)
						}
						return
					}
				}
			}(c)
		}
		time.Sleep(rand.N(3 * time.Millisecond))
		closeWithin(t, m, 20*time.Second)
		wg.Wait()
		if out := m.FlowState().HedgeOutstanding; out != 0 {
			t.Errorf("%d hedge budget slots still held after Close", out)
		}
	}
}

// TestFetchAllocationDoesNotGrowWithSegmentSize: the heap bytes a Fetch of
// 64 segments allocates are the same for 4 KiB and for 1 MiB segments,
// because segments live in pooled leases at every size. They used to
// differ by the segments themselves, 250-fold.
func TestFetchAllocationDoesNotGrowWithSegmentSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random, and each drop is a fresh allocation")
	}
	bufpool.PoisonReleased(false) // a memset per release would only slow the 64 MiB rounds
	defer bufpool.PoisonReleased(true)
	perFetch := func(segBytes int) uint64 {
		s := newChunkedSupplier(t, make([]byte, segBytes), transport.DefaultBufferSize, chunksAll)
		m, err := NewNetMerger(MergerConfig{Transport: transport.NewTCP()})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		specs := make([]FetchSpec, 64)
		for i := range specs {
			specs[i] = FetchSpec{Addr: s.Addr(), MapTask: "m"}
		}
		fetch := func() {
			err := m.Fetch(specs, func(_ FetchSpec, data []byte) error {
				if len(data) != segBytes {
					t.Errorf("%d-byte segment delivered as %d bytes", segBytes, len(data))
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		fetch() // connection, reader, pool classes
		best := ^uint64(0)
		var before, after runtime.MemStats
		for try := 0; try < 5; try++ { // a GC between two tries empties the pool once; the minimum is the steady state
			runtime.ReadMemStats(&before)
			fetch()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small, large := perFetch(4<<10), perFetch(1<<20)
	t.Logf("heap bytes per Fetch of 64 segments: %d at 4 KiB, %d at 1 MiB", small, large)
	if diff := int64(large) - int64(small); diff > 32<<10 || diff < -32<<10 {
		t.Errorf("a Fetch of 64 x 1 MiB allocates %d bytes, of 64 x 4 KiB %d: allocation grows with segment size", large, small)
	}
}
