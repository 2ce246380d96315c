package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/transport"
)

// pipeTransport is an in-memory transport whose far end is the test: every
// Dial makes a pipeConn, frames the test pushes come out of its Recv, and
// the merger's requests and CANCELs are counted, not answered.
type pipeTransport struct {
	mu    sync.Mutex
	conns map[string]*pipeConn // latest connection per address
}

func (pt *pipeTransport) Name() string { return "pipe" }

func (pt *pipeTransport) Listen(string) (transport.Listener, error) {
	return nil, errors.New("pipe: no listener")
}

func (pt *pipeTransport) Dial(addr string) (transport.Conn, error) {
	c := &pipeConn{addr: addr, in: make(chan []byte), closed: make(chan struct{}), sent: map[uint64]bool{}}
	pt.mu.Lock()
	pt.conns[addr] = c
	pt.mu.Unlock()
	return c, nil
}

// conn returns the current connection to addr, waiting for its dial.
func (pt *pipeTransport) conn(t *testing.T, addr string) *pipeConn {
	t.Helper()
	var c *pipeConn
	waitFor(t, 5*time.Second, "a connection to "+addr, func() bool {
		pt.mu.Lock()
		defer pt.mu.Unlock()
		c = pt.conns[addr]
		return c != nil
	})
	return c
}

type pipeConn struct {
	addr      string
	in        chan []byte // unbuffered: a push returns once the reader took the frame
	closed    chan struct{}
	closeOnce sync.Once

	mu      sync.Mutex
	cancels int
	sent    map[uint64]bool // request ids
}

func (c *pipeConn) Send(msg []byte) error {
	select {
	case <-c.closed:
		return transport.ErrConnClosed
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(msg) > 0 && msg[0] == msgCancel {
		c.cancels++
	} else if req, err := decodeFetchRequest(msg); err == nil {
		c.sent[req.ID] = true
	}
	return nil
}

func (c *pipeConn) Recv() ([]byte, error) {
	select {
	case b := <-c.in:
		return b, nil
	case <-c.closed:
		return nil, transport.ErrConnClosed
	}
}

func (c *pipeConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

func (c *pipeConn) RemoteAddr() string { return c.addr }

// push hands the reader one frame, then a frame naming no attempt: once
// the second is taken, the reader has finished with the first.
func (c *pipeConn) push(t *testing.T, frame []byte) {
	t.Helper()
	for _, f := range [][]byte{frame, encodeDataChunk(dataChunk{ID: 1 << 62, Last: true, Sized: true})} {
		select {
		case c.in <- f:
		case <-time.After(5 * time.Second):
			t.Fatal("the connection's reader took no frame")
		}
	}
}

// lifecycleRig is a merger over a pipeTransport with two nodes, A and B,
// one request in flight per node, and every timer far out of the way: an
// attempt moves only when the test moves it.
type lifecycleRig struct {
	t  *testing.T
	m  *NetMerger
	pt *pipeTransport
}

const nodeA, nodeB = "node-a:1", "node-b:1"

var lifecyclePayload = bytes.Repeat([]byte("lifecycle-"), 40)

func newLifecycleRig(t *testing.T) *lifecycleRig {
	t.Helper()
	poolBalanced(t)
	pt := &pipeTransport{conns: map[string]*pipeConn{}}
	m, err := NewNetMerger(MergerConfig{
		Transport:     pt,
		WindowPerNode: 1,
		MaxRetries:    1,
		FetchTimeout:  time.Hour,
		RetryBackoff:  time.Hour, // capped at maxRetryBackoff
		Replicas:      func(FetchSpec) []string { return []string{nodeA, nodeB} },
		Hedge:         &flow.HedgeConfig{Baseline: time.Hour, ScanInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeWithin(t, m, 10*time.Second) })
	return &lifecycleRig{t: t, m: m, pt: pt}
}

// fetch enqueues one logical fetch of a segment from addr, with a result
// channel of its own, roomy enough to catch a second terminal result.
func (r *lifecycleRig) fetch(addr string) (*pendingFetch, chan fetchResult) {
	results := make(chan fetchResult, 4)
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	r.m.nextID++
	p := &pendingFetch{id: r.m.nextID, spec: FetchSpec{Addr: addr, MapTask: fmt.Sprint("m-", r.m.nextID)}, result: results}
	r.m.enqueueLocked(p, false)
	r.m.cond.Broadcast()
	return p, results
}

// hedge races a duplicate of the in-flight attempt p against addr.
func (r *lifecycleRig) hedge(p *pendingFetch, addr string) *pendingFetch {
	r.m.mu.Lock()
	spec := p.spec
	r.m.mu.Unlock()
	r.m.launchHedge(p, spec, addr)
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	if p.twin == nil {
		r.t.Fatal("no hedge launched")
	}
	return p.twin
}

func (r *lifecycleRig) state(p *pendingFetch) attemptState {
	r.m.mu.Lock()
	defer r.m.mu.Unlock()
	return p.state
}

// waitState waits for p to reach state s; for in flight, also for its
// request to reach the connection (the injector sends after the move).
func (r *lifecycleRig) waitState(p *pendingFetch, s attemptState) {
	r.t.Helper()
	waitFor(r.t, 5*time.Second, fmt.Sprintf("attempt %d in state %d", p.id, s), func() bool { return r.state(p) == s })
	if s == inFlight {
		c := r.pt.conn(r.t, p.spec.Addr)
		waitFor(r.t, 5*time.Second, "the request on the wire", func() bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.sent[p.id]
		})
	}
}

func (r *lifecycleRig) deliver(p *pendingFetch) {
	r.pt.conn(r.t, p.spec.Addr).push(r.t, encodeDataChunk(dataChunk{ID: p.id, Last: true, Sized: true,
		Total: int64(len(lifecyclePayload)), Payload: lifecyclePayload}))
}

// shed parks p for a minute if it is in flight.
func (r *lifecycleRig) shed(p *pendingFetch) {
	r.pt.conn(r.t, p.spec.Addr).push(r.t, appendShed(nil, p.id, maxRetryAfter))
}

// failConn closes p's node's connection and waits for the failover.
func (r *lifecycleRig) failConn(p *pendingFetch) {
	r.m.mu.Lock()
	g := p.g
	epoch := g.epoch
	r.m.mu.Unlock()
	r.pt.conn(r.t, g.addr).Close()
	waitFor(r.t, 5*time.Second, "the failover", func() bool {
		r.m.mu.Lock()
		defer r.m.mu.Unlock()
		return g.epoch != epoch
	})
}

// deadline backdates p past FetchTimeout and runs one scan tick.
func (r *lifecycleRig) deadline(p *pendingFetch) {
	r.m.mu.Lock()
	p.sentAt = time.Now().Add(-2 * r.m.cfg.FetchTimeout)
	r.m.mu.Unlock()
	r.m.scan(nil, nil)
}

// inState puts a fresh attempt on node A in state s and returns it. A
// queued attempt waits behind another fetch holding A's one slot; a
// parked one was shed.
func (r *lifecycleRig) inState(s attemptState) (*pendingFetch, chan fetchResult) {
	if s == queued {
		blocker, _ := r.fetch(nodeA)
		r.waitState(blocker, inFlight)
	}
	p, results := r.fetch(nodeA)
	if s == queued {
		if r.state(p) != queued {
			r.t.Fatalf("attempt in state %d, want queued", r.state(p))
		}
		return p, results
	}
	r.waitState(p, inFlight)
	if s == parked {
		r.shed(p)
		r.waitState(p, parked)
	}
	return p, results
}

// pairLoser builds a hedged pair whose losing attempt is in state s and
// returns the loser and the winner. In flight: the hedge, on B, loses to
// the original. Queued: the hedge waits behind another fetch on B. Parked:
// the original — a linked attempt that is shed or fails is dropped, never
// parked, so this cell is built by hand; it pins that retirement still
// stops the timer and sends nothing.
func (r *lifecycleRig) pairLoser(s attemptState) (loser, winner *pendingFetch, results chan fetchResult) {
	if s == queued {
		blocker, _ := r.fetch(nodeB)
		r.waitState(blocker, inFlight)
	}
	o, results := r.fetch(nodeA)
	r.waitState(o, inFlight)
	h := r.hedge(o, nodeB)
	switch s {
	case queued:
		if r.state(h) != queued {
			r.t.Fatalf("hedge in state %d, want queued", r.state(h))
		}
		return h, o, results
	case inFlight:
		r.waitState(h, inFlight)
		return h, o, results
	}
	r.waitState(h, inFlight)
	r.m.mu.Lock()
	o.g.release()
	r.m.parkLocked(o, time.Minute, true)
	r.m.mu.Unlock()
	return o, h, results
}

// TestAttemptLifecycle drives one attempt through every cell of the
// transition table in docs/ARCHITECTURE.md — queued, in-flight and parked
// attempts × every event — and checks the attempt's next state, that its
// node's slot is released at most once, that its logical fetch gets
// exactly one terminal result, that every launched hedge reached a
// terminal state, and (poolBalanced) that no lease is left behind.
func TestAttemptLifecycle(t *testing.T) {
	events := []struct {
		name string
		do   func(r *lifecycleRig, p *pendingFetch)
		// next is the attempt's state after the event, by state before it.
		next [3]attemptState
	}{
		{"deliver", (*lifecycleRig).deliver, [3]attemptState{queued, done, parked}},
		{"remote-error", func(r *lifecycleRig, p *pendingFetch) {
			r.pt.conn(r.t, p.spec.Addr).push(r.t, encodeDataChunk(dataChunk{ID: p.id, Last: true, Failed: true, Payload: []byte("no such MOF")}))
		}, [3]attemptState{queued, done, parked}},
		{"shed", (*lifecycleRig).shed, [3]attemptState{queued, parked, parked}},
		// A queued attempt is sent on the fresh connection once the failure
		// frees its node's slot.
		{"conn-failure", (*lifecycleRig).failConn, [3]attemptState{inFlight, parked, parked}},
		{"deadline", (*lifecycleRig).deadline, [3]attemptState{queued, parked, parked}},
		{"twin-won", nil, [3]attemptState{done, lost, done}},
		{"unpark", func(r *lifecycleRig, p *pendingFetch) { r.m.unpark(p) }, [3]attemptState{queued, inFlight, inFlight}},
		{"close", func(r *lifecycleRig, p *pendingFetch) { closeWithin(r.t, r.m, 10*time.Second) }, [3]attemptState{done, done, done}},
	}
	for _, from := range []attemptState{queued, inFlight, parked} {
		for _, ev := range events {
			t.Run(fmt.Sprintf("%s/%s", [...]string{"queued", "in-flight", "parked"}[from], ev.name), func(t *testing.T) {
				r := newLifecycleRig(t)
				var p, winner *pendingFetch
				var results chan fetchResult
				if ev.do == nil {
					p, winner, results = r.pairLoser(from)
					r.deliver(winner)
				} else {
					p, results = r.inState(from)
					ev.do(r, p)
				}
				want := ev.next[from]
				if want == inFlight {
					r.waitState(p, want) // unpark and failover re-send through the injector
				} else if got := r.state(p); got != want {
					t.Fatalf("attempt went to state %d, want %d", got, want)
				}
				if want == lost {
					c := r.pt.conn(t, p.spec.Addr)
					waitFor(t, 5*time.Second, "a CANCEL for the loser", func() bool {
						c.mu.Lock()
						defer c.mu.Unlock()
						return c.cancels == 1
					})
					// Its supplier's answer is a duplicate, and the loser's end.
					r.deliver(p)
					if got := r.state(p); got != done {
						t.Fatalf("loser in state %d after its terminal chunk, want done", got)
					}
					if st := r.m.Stats(); st.HedgeDupBytes != int64(len(lifecyclePayload)) {
						t.Fatalf("HedgeDupBytes = %d, want the loser's %d", st.HedgeDupBytes, len(lifecyclePayload))
					}
				}
				closeWithin(t, r.m, 10*time.Second)

				r.m.mu.Lock()
				for _, g := range r.m.ring {
					if n := g.inflight.Load(); n != 0 {
						t.Errorf("node %s holds %d slots after Close, want 0", g.addr, n)
					}
				}
				if n := len(r.m.live); n != 0 {
					t.Errorf("%d attempts live after Close", n)
				}
				r.m.mu.Unlock()
				close(results)
				n := 0
				for res := range results {
					n++
					if res.lease != nil {
						if !bytes.Equal(res.data, lifecyclePayload) {
							t.Error("delivered bytes differ from the payload")
						}
						res.lease.Release()
					}
				}
				if n != 1 {
					t.Errorf("%d terminal results for one fetch, want 1", n)
				}
				st := r.m.Stats()
				checkHedgeConservation(t, st)
				if out := r.m.FlowState().HedgeOutstanding; out != 0 {
					t.Errorf("HedgeOutstanding = %d after Close, want 0", out)
				}
				if st.Sheds != st.ShedRetries+int64(shedsLeftParked(from, ev.name)) {
					t.Errorf("Sheds %d, ShedRetries %d: a shed park was neither retried nor closed", st.Sheds, st.ShedRetries)
				}
			})
		}
	}
}

// shedsLeftParked is how many shed parks a cell leaves for Close to retire
// instead of unpark.
func shedsLeftParked(from attemptState, event string) int {
	switch {
	case from == parked && event != "unpark" && event != "twin-won":
		return 1
	case from == inFlight && event == "shed":
		return 1
	}
	return 0
}
