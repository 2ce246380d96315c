package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
)

// TestSelfTimeIsIntervalUnion: overlapping children are counted once and
// a child sticking out of its parent is clipped to it.
func TestSelfTimeIsIntervalUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 70, End: 120}, // sticks out
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 45},
		{ID: 6, Parent: 1, Name: "inside-b", Start: 30, End: 40}, // wholly covered
	}
	self := selfTimes(spans)
	// Covered: [10,50) and [70,100) = 70 of 100.
	if self[1] != 30 {
		t.Errorf("parent self time = %d, want 30", self[1])
	}
	if self[3] != 10 { // 30 long, grandchild covers 20
		t.Errorf("b self time = %d, want 10", self[3])
	}
	if self[2] != 20 || self[5] != 20 {
		t.Errorf("leaf self times = %d, %d, want their durations 20, 20", self[2], self[5])
	}
	tot := totalsByName(spans)
	if got := tot["parent"]; got.calls != 1 || got.seconds != 100e-9 || got.self != 30e-9 {
		t.Errorf("totals for parent = %+v", got)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 0, 7)
	now := time.Now()
	tr.add("leaf", root, 7, now, now.Add(time.Millisecond))
	tr.end(root)
	spans := tr.stop()
	tr.add("late", root, 7, now, now) // after stop: dropped
	if got := len(tr.stop()); got != 2 {
		t.Fatalf("%d spans recorded, want 2 (one added after stop)", got)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, "w", 1, spans); err != nil {
		t.Fatal(err)
	}
	back, err := loadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1] != spans[1] || back[0].Name != "op" || back[1].Parent != back[0].ID {
		t.Errorf("loaded %+v, wrote %+v", back, spans)
	}

	orphan := append([]span(nil), spans...)
	orphan[1].Parent = 99
	if err := writeTrace(path, "w", 1, orphan); err != nil {
		t.Fatal(err)
	}
	if _, err := loadTrace(path); err == nil || !strings.Contains(err.Error(), "missing parent 99") {
		t.Errorf("loadTrace of an orphan span: err = %v, want a missing-parent error", err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
}

// TestTracedConnKeepsFastPaths: the decorated connection must still be a
// PooledReceiver and a VectorSender, or a traced run would fall back to
// Recv+Adopt and a coalescing SendVec and measure another path than the
// untraced run. The frames must also arrive intact and be recorded.
func TestTracedConnKeepsFastPaths(t *testing.T) {
	tcp := transport.NewTCP()
	lis, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	echoed := make(chan error, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		msg, err := c.Recv()
		if err == nil {
			err = c.Send(msg)
		}
		echoed <- err
	}()

	tr := newTracer()
	tt := &tracedTransport{Transport: tcp, tr: tr}
	c, err := tt.Dial(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(transport.PooledReceiver); !ok {
		t.Error("traced connection is not a transport.PooledReceiver")
	}
	if _, ok := c.(transport.VectorSender); !ok {
		t.Error("traced connection is not a transport.VectorSender")
	}
	if err := transport.SendVec(c, []byte("head"), []byte("-body")); err != nil {
		t.Fatal(err)
	}
	l, err := transport.RecvBuf(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(l.Bytes()); got != "head-body" {
		t.Errorf("echo = %q, want %q", got, "head-body")
	}
	l.Release()
	if err := <-echoed; err != nil {
		t.Fatal(err)
	}
	tot := totalsByName(tr.stop())
	if tot["transport.dial"].calls != 1 || tot["transport.send"].calls != 1 || tot["transport.recv"].calls != 1 {
		t.Errorf("recorded spans %+v, want one dial, one send, one recv", tot)
	}
	if got := tt.recvBytes.Load(); got != int64(len("head-body")) {
		t.Errorf("recvBytes = %d, want %d", got, len("head-body"))
	}
}
