package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// backends returns a constructor per backend; every case runs on each.
func backends(t *testing.T) map[string]func() (Transport, string) {
	t.Helper()
	return map[string]func() (Transport, string){
		"tcp": func() (Transport, string) {
			return NewTCP(), "127.0.0.1:0"
		},
	}
}

// pair builds a connected (client, server) pair on the given transport.
func pair(t *testing.T, tr Transport, addr string) (client, server Conn, cleanup func()) {
	t.Helper()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	type res struct {
		c   Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	client, err = tr.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	server = r.c
	return client, server, func() {
		client.Close()
		server.Close()
		l.Close()
	}
}

func TestRoundTrip(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			tr, addr := mk()
			client, server, cleanup := pair(t, tr, addr)
			defer cleanup()

			msg := []byte("fetch segment 42 of MOF 7")
			if err := client.Send(msg); err != nil {
				t.Fatal(err)
			}
			got, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("got %q, want %q", got, msg)
			}
			// And the reverse direction.
			reply := []byte("segment data")
			if err := server.Send(reply); err != nil {
				t.Fatal(err)
			}
			got, err = client.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, reply) {
				t.Fatalf("reply = %q, want %q", got, reply)
			}
		})
	}
}

// TestPooledRoundTrip sends with SendVec (header and payload
// as separate slices) and receives with RecvBuf, the allocation-free path
// the supplier and merger use.
func TestPooledRoundTrip(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			tr, addr := mk()
			client, server, cleanup := pair(t, tr, addr)
			defer cleanup()

			hdr := []byte{1, 2, 3}
			payload := bytes.Repeat([]byte("x"), 300<<10) // larger than one transport buffer
			want := append(append([]byte(nil), hdr...), payload...)
			done := make(chan error, 1)
			go func() {
				done <- SendVec(client, hdr, payload)
			}()
			l, err := RecvBuf(server)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(l.Bytes(), want) {
				t.Fatalf("pooled recv got %d bytes, want %d", l.Len(), len(want))
			}
			l.Release()
			if err := <-done; err != nil {
				t.Fatal(err)
			}

			// Pooled recv interleaves with plain Recv on one connection.
			if err := SendVec(client, []byte("plain")); err != nil {
				t.Fatal(err)
			}
			got, err := server.Recv()
			if err != nil || !bytes.Equal(got, []byte("plain")) {
				t.Fatalf("plain recv after pooled = %q, %v", got, err)
			}
		})
	}
}

// fallbackConn hides the pooled/vector fast paths to exercise the generic
// RecvBuf/SendVec helpers.
type fallbackConn struct{ c Conn }

func (f fallbackConn) Send(msg []byte) error { return f.c.Send(msg) }
func (f fallbackConn) Recv() ([]byte, error) { return f.c.Recv() }
func (f fallbackConn) Close() error          { return f.c.Close() }
func (f fallbackConn) RemoteAddr() string    { return f.c.RemoteAddr() }

func TestPooledHelpersFallBack(t *testing.T) {
	client, server, cleanup := pair(t, NewTCP(), "127.0.0.1:0")
	defer cleanup()
	done := make(chan error, 1)
	go func() {
		done <- SendVec(fallbackConn{client}, []byte("a"), []byte("bc"))
	}()
	l, err := RecvBuf(fallbackConn{server})
	if err != nil {
		t.Fatal(err)
	}
	if string(l.Bytes()) != "abc" {
		t.Fatalf("fallback round trip = %q", l.Bytes())
	}
	l.Release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestSendVecEmptyMessage(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			tr, addr := mk()
			client, server, cleanup := pair(t, tr, addr)
			defer cleanup()
			done := make(chan error, 1)
			go func() { done <- SendVec(client) }()
			l, err := RecvBuf(server)
			if err != nil {
				t.Fatal(err)
			}
			if l.Len() != 0 {
				t.Fatalf("empty frame arrived with %d bytes", l.Len())
			}
			l.Release()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestLargeMessageSpansManyBuffers(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			tr, addr := mk()
			client, server, cleanup := pair(t, tr, addr)
			defer cleanup()

			// Larger than the 128 KB transport buffer: the frame takes
			// several reads to arrive.
			msg := make([]byte, 1<<20+12345)
			for i := range msg {
				msg[i] = byte(i * 31)
			}
			done := make(chan error, 1)
			go func() { done <- client.Send(msg) }()
			got, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatal("large payload corrupted")
			}
		})
	}
}

func TestMessageBoundariesPreserved(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			tr, addr := mk()
			client, server, cleanup := pair(t, tr, addr)
			defer cleanup()

			var want [][]byte
			for i := 0; i < 20; i++ {
				want = append(want, bytes.Repeat([]byte{byte(i)}, i*100+1))
			}
			go func() {
				for _, m := range want {
					if err := client.Send(m); err != nil {
						return
					}
				}
			}()
			for i, w := range want {
				got, err := server.Recv()
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				if !bytes.Equal(got, w) {
					t.Fatalf("message %d: got %d bytes, want %d", i, len(got), len(w))
				}
			}
		})
	}
}

func TestRecvAfterCloseFails(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			tr, addr := mk()
			client, server, cleanup := pair(t, tr, addr)
			defer cleanup()

			client.Close()
			if _, err := server.Recv(); !errors.Is(err, ErrConnClosed) {
				t.Fatalf("Recv after peer close: %v, want ErrConnClosed", err)
			}
		})
	}
}

func TestSendTooLarge(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			tr, addr := mk()
			client, _, cleanup := pair(t, tr, addr)
			defer cleanup()
			big := make([]byte, MaxFrameSize+1)
			if err := client.Send(big); !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("err = %v, want ErrFrameTooLarge", err)
			}
		})
	}
}

func TestConcurrentSenders(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			tr, addr := mk()
			client, server, cleanup := pair(t, tr, addr)
			defer cleanup()

			const senders, each = 8, 25
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						msg := []byte(fmt.Sprintf("s%d-m%d", s, i))
						if err := client.Send(msg); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(s)
			}
			got := map[string]bool{}
			for i := 0; i < senders*each; i++ {
				m, err := server.Recv()
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				got[string(m)] = true
			}
			wg.Wait()
			if len(got) != senders*each {
				t.Fatalf("received %d distinct messages, want %d", len(got), senders*each)
			}
		})
	}
}

func TestTransportNames(t *testing.T) {
	if NewTCP().Name() != "tcp" {
		t.Error("tcp name")
	}
}

func TestDialNoListener(t *testing.T) {
	if _, err := NewTCP().Dial("127.0.0.1:1"); err == nil {
		t.Fatal("tcp dial to closed port succeeded")
	}
}

// echoServer runs an accept loop that echoes one message per connection.
func echoServer(t *testing.T, tr Transport, addr string) (string, func()) {
	t.Helper()
	l, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					m, err := c.Recv()
					if err != nil {
						return
					}
					if err := c.Send(m); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr(), func() { close(done); l.Close() }
}

func TestConnCacheReuse(t *testing.T) {
	tr := NewTCP()
	addr, stop := echoServer(t, tr, "127.0.0.1:0")
	defer stop()

	cache := NewConnCache(tr, 4)
	defer cache.Close()

	c1, err := cache.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cache.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("second Get did not reuse the cached connection")
	}
	hits, misses, _ := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits %d misses, want 1/1", hits, misses)
	}
}

func TestConnCacheLRUEviction(t *testing.T) {
	tr := NewTCP()
	var addrs []string
	for i := 0; i < 3; i++ {
		addr, stop := echoServer(t, tr, "127.0.0.1:0")
		defer stop()
		addrs = append(addrs, addr)
	}
	cache := NewConnCache(tr, 2)
	defer cache.Close()

	c0, _ := cache.Get(addrs[0])
	if _, err := cache.Get(addrs[1]); err != nil {
		t.Fatal(err)
	}
	// Touch addrs[0] so addrs[1] is LRU.
	if _, err := cache.Get(addrs[0]); err != nil {
		t.Fatal(err)
	}
	// Adding a third evicts addrs[1], not addrs[0].
	if _, err := cache.Get(addrs[2]); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache len = %d, want 2", cache.Len())
	}
	c0again, _ := cache.Get(addrs[0])
	if c0again != c0 {
		t.Fatal("LRU evicted the recently used connection")
	}
	_, _, ev := cache.Stats()
	if ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	// The evicted addr re-dials on demand.
	c1, err := cache.Get(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Send([]byte("x")); err != nil {
		t.Fatalf("re-dialed connection unusable: %v", err)
	}
}

func TestConnCacheInvalidate(t *testing.T) {
	tr := NewTCP()
	addr, stop := echoServer(t, tr, "127.0.0.1:0")
	defer stop()
	cache := NewConnCache(tr, 4)
	defer cache.Close()

	c1, _ := cache.Get(addr)
	cache.Invalidate(addr)
	if cache.Len() != 0 {
		t.Fatal("Invalidate left the connection cached")
	}
	c2, err := cache.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("Get after Invalidate returned the closed connection")
	}
}

func TestConnCacheConcurrentGetSharesDial(t *testing.T) {
	tr := NewTCP()
	addr, stop := echoServer(t, tr, "127.0.0.1:0")
	defer stop()
	cache := NewConnCache(tr, 8)
	defer cache.Close()

	const n = 16
	conns := make([]Conn, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := cache.Get(addr)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			conns[i] = c
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if conns[i] != conns[0] {
			t.Fatal("concurrent Gets produced different connections")
		}
	}
	if cache.Len() != 1 {
		t.Fatalf("cache len = %d, want 1", cache.Len())
	}
}

// Property: messages of arbitrary content and size below the frame limit
// survive the wire byte-for-byte.
func TestFramedRoundTripProperty(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			tr, addr := mk()
			client, server, cleanup := pair(t, tr, addr)
			defer cleanup()

			f := func(data []byte) bool {
				done := make(chan error, 1)
				go func() { done <- client.Send(data) }()
				got, err := server.Recv()
				if err != nil || <-done != nil {
					return false
				}
				return bytes.Equal(got, data)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	for name, mk := range backends(t) {
		t.Run(name, func(t *testing.T) {
			tr, addr := mk()
			l, err := tr.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() {
				_, err := l.Accept()
				done <- err
			}()
			l.Close()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("Accept returned a connection from a closed listener")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Accept hung after listener close")
			}
		})
	}
}

func TestCacheGetAfterClose(t *testing.T) {
	tr := NewTCP()
	addr, stop := echoServer(t, tr, "127.0.0.1:0")
	defer stop()
	cache := NewConnCache(tr, 2)
	if _, err := cache.Get(addr); err != nil {
		t.Fatal(err)
	}
	cache.Close()
	if cache.Len() != 0 {
		t.Fatal("cache not emptied by Close")
	}
	// The cache stays closed: a connection handed out now would have no
	// owner left to close it.
	if _, err := cache.Get(addr); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Get after Close = %v, want ErrConnClosed", err)
	}
	if cache.Len() != 0 {
		t.Fatal("Get after Close cached a connection")
	}
}

// gatedDialer holds every Dial until release is closed and remembers what
// it dialed.
type gatedDialer struct {
	Transport
	entered, release chan struct{}
	dialed           chan Conn
}

func (g *gatedDialer) Dial(addr string) (Conn, error) {
	g.entered <- struct{}{}
	<-g.release
	c, err := g.Transport.Dial(addr)
	if err == nil {
		g.dialed <- c
	}
	return c, err
}

// TestCacheCloseOvertakesDial is the NetMerger.Close hang at its root: a
// Get whose dial finishes after Close used to cache and return a live
// connection that nothing would ever close, and the reader that asked for
// it parked in Recv for good.
func TestCacheCloseOvertakesDial(t *testing.T) {
	tr := NewTCP()
	addr, stop := echoServer(t, tr, "127.0.0.1:0")
	defer stop()
	g := &gatedDialer{Transport: tr, entered: make(chan struct{}), release: make(chan struct{}), dialed: make(chan Conn, 1)}
	cache := NewConnCache(g, 2)
	got := make(chan error, 1)
	go func() {
		_, err := cache.Get(addr)
		got <- err
	}()
	<-g.entered
	cache.Close()
	close(g.release)
	if err := <-got; !errors.Is(err, ErrConnClosed) {
		t.Fatalf("Get overtaken by Close = %v, want ErrConnClosed", err)
	}
	if cache.Len() != 0 {
		t.Fatal("the late connection was cached")
	}
	if _, err := (<-g.dialed).Recv(); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("the late connection was left open: Recv = %v", err)
	}
}

func TestTransientClassifiesBackpressure(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{ErrBackpressure, true},
		{fmt.Errorf("fetch x: %w", ErrBackpressure), true},
		{ErrConnClosed, false},
		{ErrFrameTooLarge, false},
		{errors.New("io: broken pipe"), false},
		{nil, false},
	}
	for _, c := range cases {
		if got := Transient(c.err); got != c.want {
			t.Errorf("Transient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestInvalidateOnErrorKeepsBackpressuredConn(t *testing.T) {
	tr := NewTCP()
	addr, stop := echoServer(t, tr, "127.0.0.1:0")
	defer stop()

	cache := NewConnCache(tr, 4)
	defer cache.Close()

	c1, err := cache.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	// A backpressure condition must not cost the cached connection: the
	// peer is healthy, only refusing new work.
	if cache.InvalidateOnError(addr, fmt.Errorf("shed: %w", ErrBackpressure)) {
		t.Fatal("InvalidateOnError dropped the connection on backpressure")
	}
	c2, err := cache.Get(addr)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("backpressure tore down the cached connection")
	}
	// A real failure still invalidates.
	if !cache.InvalidateOnError(addr, ErrConnClosed) {
		t.Fatal("InvalidateOnError kept the connection on a real error")
	}
	if cache.Len() != 0 {
		t.Fatalf("cache.Len() = %d after invalidation, want 0", cache.Len())
	}
}
