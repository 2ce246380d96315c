package main

import (
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/mapred"
	"repro/internal/merge"
	"repro/internal/transport"
)

// This file holds the decorators a traced run wraps around the seams the
// program already exposes as interfaces. An untraced run installs none of
// them, so end-to-end numbers are measured on the undecorated program.

// tracedTransport records dials and hands out traced connections. The
// NetMerger only dials; Listen passes through.
type tracedTransport struct {
	transport.Transport
	tr *tracer
	// recvBytes totals the frame bytes its connections received: the one
	// count the spans cannot give.
	recvBytes atomic.Int64
}

func (t *tracedTransport) Dial(addr string) (transport.Conn, error) {
	start := time.Now()
	c, err := t.Transport.Dial(addr)
	t.tr.add("transport.dial", 0, 0, start, time.Now())
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: t.tr, recvBytes: &t.recvBytes}, nil
}

// tracedConn records one span per framed send and receive. Sends and
// receives run on the NetMerger's injector and reader goroutines, which
// serve every batch at once, so their spans have no batch for a parent:
// they are roots with op 0. It implements PooledReceiver and VectorSender
// by forwarding to the package-level helpers, which pick the inner
// connection's pooled and gathering paths when it has them; without these
// two methods a traced run would silently fall back to Recv+Adopt and a
// coalescing copy, and measure a different path from the untraced one.
type tracedConn struct {
	transport.Conn
	tr        *tracer
	recvBytes *atomic.Int64
}

func (c *tracedConn) Send(msg []byte) error {
	start := time.Now()
	err := c.Conn.Send(msg)
	c.tr.add("transport.send", 0, 0, start, time.Now())
	return err
}

func (c *tracedConn) SendVec(bufs [][]byte) error {
	start := time.Now()
	err := transport.SendVec(c.Conn, bufs...)
	c.tr.add("transport.send", 0, 0, start, time.Now())
	return err
}

func (c *tracedConn) Recv() ([]byte, error) {
	start := time.Now()
	msg, err := c.Conn.Recv()
	c.tr.add("transport.recv", 0, 0, start, time.Now())
	c.recvBytes.Add(int64(len(msg)))
	return msg, err
}

func (c *tracedConn) RecvBuf() (*bufpool.Lease, error) {
	start := time.Now()
	l, err := transport.RecvBuf(c.Conn)
	c.tr.add("transport.recv", 0, 0, start, time.Now())
	if err != nil {
		return nil, err
	}
	c.recvBytes.Add(int64(l.Len()))
	return l, nil
}

var (
	_ transport.PooledReceiver = (*tracedConn)(nil)
	_ transport.VectorSender   = (*tracedConn)(nil)
)

// tracedProvider decorates the ShuffleProvider a job runs on: every
// Fetcher and Merger it hands the engine records spans under the job's
// span. A job gets a provider, and so a decorator, of its own.
type tracedProvider struct {
	mapred.ShuffleProvider
	tr *tracer
	// job is the job's span id; op its shared id.
	job, op int32
	// firstFetchStart and lastFinishEnd (ns since the tracer's start) are
	// when the first reducer began fetching and when the last merge was
	// ready; the job's map_phase and reduce_tail spans derive from them.
	firstFetchStart, lastFinishEnd atomic.Int64
}

func (p *tracedProvider) NewFetcher(node string, addrOf func(string) (string, error)) (mapred.Fetcher, error) {
	f, err := p.ShuffleProvider.NewFetcher(node, addrOf)
	if err != nil {
		return nil, err
	}
	return &tracedFetcher{Fetcher: f, p: p}, nil
}

func (p *tracedProvider) NewMerger(spillDir string) (merge.Merger, error) {
	m, err := p.ShuffleProvider.NewMerger(spillDir)
	if err != nil {
		return nil, err
	}
	return &tracedMerger{Merger: m, p: p}, nil
}

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

type tracedFetcher struct {
	mapred.Fetcher
	p *tracedProvider
}

func (f *tracedFetcher) Fetch(reduceTask string, segs []mapred.SegmentID, deliver func(mapred.SegmentID, []byte) error) error {
	tr := f.p.tr
	id := tr.begin("shuffle.fetch", f.p.job, f.p.op)
	f.p.firstFetchStart.CompareAndSwap(0, time.Since(tr.t0).Nanoseconds())
	err := f.Fetcher.Fetch(reduceTask, segs, func(seg mapred.SegmentID, data []byte) error {
		start := time.Now()
		derr := deliver(seg, data)
		tr.add("shuffle.deliver", id, f.p.op, start, time.Now())
		return derr
	})
	tr.end(id)
	return err
}

type tracedMerger struct {
	merge.Merger
	p *tracedProvider
}

func (m *tracedMerger) AddSegment(data []byte) error {
	start := time.Now()
	err := m.Merger.AddSegment(data)
	m.p.tr.add("merge.add_segment", m.p.job, m.p.op, start, time.Now())
	return err
}

func (m *tracedMerger) Finish() (*merge.Iterator, error) {
	start := time.Now()
	it, err := m.Merger.Finish()
	end := time.Now()
	m.p.tr.add("merge.finish", m.p.job, m.p.op, start, end)
	storeMax(&m.p.lastFinishEnd, end.Sub(m.p.tr.t0).Nanoseconds())
	return it, err
}
