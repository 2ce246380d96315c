package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/mof"
	"repro/internal/transport"
)

// TestSupplierCloseRetiresQueuedRequests closes a supplier whose one
// transmit worker is wedged against a client that never reads, with the
// rest of the requests staged behind it. Close must retire every one of
// them: their staging pins dropped (so the DataCache drains and the pool
// balances), the pipeline empty, and with flow control on the ledger
// back at zero.
func TestSupplierCloseRetiresQueuedRequests(t *testing.T) {
	for _, flowOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("flow=%v", flowOn), func(t *testing.T) {
			poolBalanced(t)
			const parts, segBytes = 16, 1 << 20
			dataPath, indexPath := buildBigMOF(t, t.TempDir(), "m-big", parts, segBytes)
			cfg := SupplierConfig{Transport: transport.NewTCP(), Addr: "127.0.0.1:0", XmitWorkers: 1}
			if flowOn {
				cfg.Flow = &flow.Config{AdmitBytes: 2 * parts * segBytes}
			}
			s, err := NewMOFSupplier(cfg, func(string) (string, string, error) { return dataPath, indexPath, nil })
			if err != nil {
				t.Fatal(err)
			}
			conn, err := cfg.Transport.Dial(s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			for p := 0; p < parts; p++ {
				if err := conn.Send(encodeFetchRequest(fetchRequest{ID: uint64(p + 1), Partition: uint32(p), MapTask: "m-big"})); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, 10*time.Second, "every segment staged", func() bool { return s.Stats().DiskReads == parts })
			closeSupplierWithin(t, s, 10*time.Second)
			if n := s.Inflight(); n != 0 {
				t.Errorf("Inflight() = %d after Close, want 0", n)
			}
			if used := s.dcache.Used(); used != 0 {
				t.Errorf("DataCache holds %d bytes after Close: a staging pin outlived it", used)
			}
			if flowOn {
				if used := s.ledger.Used(); used != 0 {
					t.Errorf("ledger Used = %d after Close, want 0", used)
				}
			}
		})
	}
}

// closeSupplierWithin closes s, failing t if Close does not return in d.
func closeSupplierWithin(t *testing.T, s *MOFSupplier, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("supplier Close did not return in %v", d)
	}
}

// gatedSends holds every data chunk its supplier sends until the test
// opens the gate, breaks it (the connection fails), or the connection is
// closed. held reports the fetch id of each chunk that waits.
type gatedSends struct {
	transport.Transport
	open, broken chan struct{}
	held         chan uint64
}

func (g *gatedSends) Listen(addr string) (transport.Listener, error) {
	lis, err := g.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &gatedSendsListener{Listener: lis, g: g}, nil
}

type gatedSendsListener struct {
	transport.Listener
	g *gatedSends
}

func (l *gatedSendsListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gatedSendsConn{Conn: c, g: l.g, closed: make(chan struct{})}, nil
}

// gatedSendsConn embeds the plain Conn interface, so the supplier's gathered
// sends fall back to Send, where the gate sits.
type gatedSendsConn struct {
	transport.Conn
	g         *gatedSends
	closeOnce sync.Once
	closed    chan struct{}
}

var errGateBroken = errors.New("gate broken")

func (c *gatedSendsConn) Send(msg []byte) error {
	if msg[0] == msgDataChunk {
		select {
		case c.g.held <- binary.BigEndian.Uint64(msg[frameBodyOff:]):
		default:
		}
		select {
		case <-c.g.open:
		case <-c.g.broken:
			c.Close()
			return errGateBroken
		case <-c.closed:
			return transport.ErrConnClosed
		}
	}
	return c.Conn.Send(msg)
}

func (c *gatedSendsConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// Fetch ids of the supplier rig. Request a is being sent, b is staged
// behind it, c waits in the prefetch server's Put for room in the
// DataCache (two segments, both pinned), and d is queued behind c. e is
// the request a drain or ledger shed event turns away.
const (
	rigA uint64 = iota + 1
	rigB
	rigC
	rigD
	rigE
)

// supplierRig is a supplier over a gatedSends, with requests a–d held in
// the pipeline states above, sent by a raw client. Request e comes on a
// second connection: a's held chunk holds the first one's send lock. One
// reader per connection books every frame by fetch id.
type supplierRig struct {
	t      *testing.T
	s      *MOFSupplier
	g      *gatedSends
	client transport.Conn    // a–d
	other  transport.Conn    // e
	paths  map[string]string // MOF task -> data file
	drain  chan error        // Drain's result, once a drain started

	mu     sync.Mutex
	frames map[uint64][]string // "chunk", then a terminal "data", "error", "cancelled" or "shed"
	eof    sync.WaitGroup      // the readers, until their connections end

	queueDepth, xmitDepth int64 // the depth gauges before the rig
}

func newSupplierRig(t *testing.T) *supplierRig {
	t.Helper()
	poolBalanced(t)
	dir := t.TempDir()
	mData, mIndex := buildBigMOF(t, dir, "m", 3, 16<<10)
	dData, dIndex := buildBigMOF(t, dir, "md", 1, 16<<10)
	ix, err := mof.ReadIndex(mIndex)
	if err != nil {
		t.Fatal(err)
	}
	seg, _ := ix.Entry(0)
	r := &supplierRig{
		t:      t,
		g:      &gatedSends{Transport: transport.NewTCP(), open: make(chan struct{}), broken: make(chan struct{}), held: make(chan uint64, 16)},
		paths:  map[string]string{"m": mData, "md": dData},
		frames: map[uint64][]string{},

		queueDepth: supQueueDepth.Load(),
		xmitDepth:  supXmitDepth.Load(),
	}
	index := map[string]string{"m": mIndex, "md": dIndex}
	r.s, err = NewMOFSupplier(SupplierConfig{
		Transport:      r.g,
		Addr:           "127.0.0.1:0",
		BufferSize:     4 << 10,
		DataCacheBytes: 2 * seg.Length,
		XmitWorkers:    1,
		// Room for a–d: the hard limit is 4.5 segments, so a fifth
		// request is past it.
		Flow: &flow.Config{AdmitBytes: 3 * seg.Length, RetryAfter: time.Millisecond},
	}, func(task string) (string, string, error) {
		if r.paths[task] == "" {
			return "", "", fmt.Errorf("no MOF %s", task)
		}
		return r.paths[task], index[task], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeSupplierWithin(t, r.s, 10*time.Second) })
	r.client, r.other = r.dial(), r.dial()

	r.request(rigA, "m", 0)
	select {
	case id := <-r.g.held:
		if id != rigA {
			t.Fatalf("held chunk of fetch %d, want %d", id, rigA)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a never reached the gate")
	}
	r.request(rigB, "m", 1)
	waitFor(t, 5*time.Second, "b staged", func() bool { return len(r.s.xmitCh) == 1 })
	r.request(rigC, "m", 2)
	waitFor(t, 5*time.Second, "c read and waiting in Put", func() bool { return r.s.Stats().DiskReads == 3 })
	r.request(rigD, "md", 0)
	waitFor(t, 5*time.Second, "d queued", func() bool { return len(r.s.reqCh) == 1 })
	return r
}

// dial connects a raw client and starts its reader.
func (r *supplierRig) dial() transport.Conn {
	r.t.Helper()
	c, err := transport.NewTCP().Dial(r.s.Addr())
	if err != nil {
		r.t.Fatal(err)
	}
	r.eof.Add(1)
	go r.read(c)
	r.t.Cleanup(func() {
		c.Close()
		r.eof.Wait()
	})
	return c
}

func (r *supplierRig) request(id uint64, task string, part uint32) {
	r.t.Helper()
	c := r.client
	if id == rigE {
		c = r.other
	}
	if err := c.Send(encodeFetchRequest(fetchRequest{ID: id, Partition: part, MapTask: task})); err != nil {
		r.t.Fatal(err)
	}
}

// read books c's frames until the connection ends.
func (r *supplierRig) read(c transport.Conn) {
	defer r.eof.Done()
	for {
		msg, err := c.Recv()
		if err != nil {
			return
		}
		var id uint64
		var kind string
		switch msg[0] {
		case msgShed:
			id, _, err = decodeShed(msg)
			kind = "shed"
		case msgDataChunk:
			var c dataChunk
			c, err = decodeDataChunk(msg)
			id, kind = c.ID, "chunk"
			switch {
			case c.Failed && string(c.Payload) == errFetchCancelled.Error():
				kind = "cancelled"
			case c.Failed:
				kind = "error"
			case c.Last:
				kind = "data"
			}
		default:
			continue // a credit
		}
		if err != nil {
			r.t.Errorf("bad frame from the supplier: %v", err)
			return
		}
		r.mu.Lock()
		r.frames[id] = append(r.frames[id], kind)
		r.mu.Unlock()
	}
}

// terminals returns fetch id's terminal frames.
func (r *supplierRig) terminals(id uint64) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, k := range r.frames[id] {
		if k != "chunk" {
			out = append(out, k)
		}
	}
	return out
}

// subject maps a pipeline state to the rig request held in it.
var subject = map[reqState]uint64{reqQueued: rigD, reqStaged: rigB, reqSending: rigA}

// inState reports whether fetch id is (still, or by now) in state st.
func (r *supplierRig) inState(id uint64, st reqState) bool {
	if st == reqDone {
		return len(r.terminals(id)) > 0 || r.s.Inflight() == 0
	}
	if r.s.Inflight() != 4 {
		return false // a–d are all still inside
	}
	switch st {
	case reqQueued:
		return len(r.s.reqCh) == 1
	case reqStaged:
		return len(r.s.xmitCh) == 1
	}
	return len(r.terminals(rigA)) == 0 // sending: its first chunk is at the gate
}

// shed sends request e and waits for its SHED.
func (r *supplierRig) shed() {
	r.request(rigE, "md", 0)
	waitFor(r.t, 5*time.Second, "e shed", func() bool { return len(r.terminals(rigE)) == 1 })
}

// TestSupplierRequestLifecycle drives a request in each pipeline state —
// queued, staged and sending — through every event of the transition
// table in docs/ARCHITECTURE.md, over a raw client. For every cell it
// checks the request's next state and its terminal frame; that every
// fetch id got exactly one terminal frame unless the connection died;
// that Inflight() returns to 0, the ledger drains, the depth gauges
// return to where they were, and (poolBalanced) no lease is left.
func TestSupplierRequestLifecycle(t *testing.T) {
	events := []struct {
		name string
		do   func(r *supplierRig, id uint64)
		// next is the subject's state once the event is handled and frame
		// its terminal frame once the pipeline runs dry, each by the
		// state before the event (queued, staged, sending). An event that
		// leaves the state alone is handled later, at its checkpoint.
		next  [3]reqState
		frame [3]string
		died  bool // the connection dies: no frame is owed
	}{
		{"delivered", func(r *supplierRig, _ uint64) { close(r.g.open) },
			[3]reqState{reqDone, reqDone, reqDone}, [3]string{"data", "data", "data"}, false},
		// The segment's file is gone: a queued request fails its read, a
		// staged or sending one is served from its pin.
		{"read-error", func(r *supplierRig, id uint64) {
			task := map[uint64]string{rigA: "m", rigB: "m", rigD: "md"}[id]
			if err := os.Remove(r.paths[task]); err != nil {
				r.t.Fatal(err)
			}
		}, [3]reqState{reqQueued, reqStaged, reqSending}, [3]string{"error", "data", "data"}, false},
		// A drain sheds new arrivals; admitted requests run to completion.
		{"drain-shed", func(r *supplierRig, _ uint64) {
			go func() { r.drain <- r.s.Drain(context.Background()) }()
			waitFor(r.t, 5*time.Second, "the drain latch", r.s.Draining)
			r.shed()
		}, [3]reqState{reqQueued, reqStaged, reqSending}, [3]string{"data", "data", "data"}, false},
		{"ledger-shed", func(r *supplierRig, _ uint64) { r.shed() },
			[3]reqState{reqQueued, reqStaged, reqSending}, [3]string{"data", "data", "data"}, false},
		// The mark waits for the next checkpoint: stage, or the next chunk.
		{"cancel", func(r *supplierRig, id uint64) {
			if err := r.client.Send(appendCancel(nil, id)); err != nil {
				r.t.Fatal(err)
			}
			waitFor(r.t, 5*time.Second, "the CANCEL", func() bool { return r.s.Stats().Cancels == 1 })
		}, [3]reqState{reqQueued, reqStaged, reqSending}, [3]string{"cancelled", "cancelled", "cancelled"}, false},
		{"send-failure", func(r *supplierRig, _ uint64) { close(r.g.broken) },
			[3]reqState{reqDone, reqDone, reqDone}, [3]string{"", "", ""}, true},
		{"close", func(r *supplierRig, _ uint64) { closeSupplierWithin(r.t, r.s, 10*time.Second) },
			[3]reqState{reqDone, reqDone, reqDone}, [3]string{"", "", ""}, true},
	}
	for _, from := range []reqState{reqQueued, reqStaged, reqSending} {
		for _, ev := range events {
			t.Run(fmt.Sprintf("%s/%s", [...]string{"queued", "staged", "sending"}[from-reqQueued], ev.name), func(t *testing.T) {
				r := newSupplierRig(t)
				r.drain = make(chan error, 1)
				id := subject[from]
				ev.do(r, id)
				want := ev.next[from-reqQueued]
				waitFor(t, 5*time.Second, fmt.Sprintf("fetch %d in state %d", id, want), func() bool { return r.inState(id, want) })

				// Let the pipeline run dry, then close the connection.
				select {
				case <-r.g.open:
				case <-r.g.broken:
				default:
					close(r.g.open)
				}
				waitFor(t, 5*time.Second, "the pipeline to empty", func() bool { return r.s.Inflight() == 0 })
				if ev.name == "drain-shed" {
					if err := <-r.drain; err != nil {
						t.Errorf("Drain: %v", err)
					}
				}
				closeSupplierWithin(t, r.s, 10*time.Second)
				r.eof.Wait()

				got := r.terminals(id)
				if wantFrame := ev.frame[from-reqQueued]; wantFrame == "" {
					if len(got) != 0 {
						t.Errorf("fetch %d got %v after its connection died", id, got)
					}
				} else if len(got) != 1 || got[0] != wantFrame {
					t.Errorf("fetch %d got terminal frames %v, want [%s]", id, got, wantFrame)
				}
				for _, other := range []uint64{rigA, rigB, rigC, rigD, rigE} {
					n := len(r.terminals(other))
					sent := other != rigE || ev.name == "drain-shed" || ev.name == "ledger-shed"
					if ev.died && n > 1 || !ev.died && sent && n != 1 || !sent && n != 0 {
						t.Errorf("fetch %d got %d terminal frames %v", other, n, r.terminals(other))
					}
				}
				if ev.name == "cancel" && from == reqQueued {
					if n := r.s.Stats().DiskReads; n != 3 {
						t.Errorf("DiskReads = %d: a request cancelled while queued was read", n)
					}
				}
				if n := r.s.Inflight(); n != 0 {
					t.Errorf("Inflight() = %d after Close", n)
				}
				if used := r.s.ledger.Used(); used != 0 {
					t.Errorf("ledger Used = %d after Close", used)
				}
				if used := r.s.dcache.Used(); used != 0 {
					t.Errorf("DataCache holds %d bytes after Close", used)
				}
				if q, x := supQueueDepth.Load(), supXmitDepth.Load(); q != r.queueDepth || x != r.xmitDepth {
					t.Errorf("depth gauges queue %d, xmit %d after Close, want %d, %d", q, x, r.queueDepth, r.xmitDepth)
				}
			})
		}
	}
}
