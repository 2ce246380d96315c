package core

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/transport"
)

// flakyProxy forwards framed messages between the NetMerger and a real
// supplier, killing its first accepted connection after forwarding a set
// number of response frames — a deterministic mid-fetch network failure.
type flakyProxy struct {
	lis      transport.Listener
	backend  string
	tr       transport.Transport
	killures int32 // connections left to kill
	frames   int   // response frames to pass before killing
	wg       sync.WaitGroup
}

func newFlakyProxy(t *testing.T, backend string, kills int32, frames int) *flakyProxy {
	t.Helper()
	tr := transport.NewTCP()
	lis, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &flakyProxy{lis: lis, backend: backend, tr: tr, killures: kills, frames: frames}
	go p.acceptLoop()
	t.Cleanup(func() { lis.Close(); p.wg.Wait() })
	return p
}

func (p *flakyProxy) Addr() string { return p.lis.Addr() }

func (p *flakyProxy) acceptLoop() {
	for {
		client, err := p.lis.Accept()
		if err != nil {
			return
		}
		server, err := p.tr.Dial(p.backend)
		if err != nil {
			client.Close()
			continue
		}
		kill := atomic.AddInt32(&p.killures, -1) >= 0
		p.wg.Add(2)
		// Requests: client -> server, unconditionally.
		go func() {
			defer p.wg.Done()
			defer server.Close()
			for {
				msg, err := client.Recv()
				if err != nil {
					return
				}
				if server.Send(msg) != nil {
					return
				}
			}
		}()
		// Responses: server -> client, killed after N frames on a doomed
		// connection.
		go func() {
			defer p.wg.Done()
			defer client.Close()
			passed := 0
			for {
				msg, err := server.Recv()
				if err != nil {
					return
				}
				if kill && passed >= p.frames {
					client.Close()
					server.Close()
					return
				}
				if client.Send(msg) != nil {
					return
				}
				passed++
			}
		}()
	}
}

func TestFetchRetriesAfterConnectionFailure(t *testing.T) {
	tr := transport.NewTCP()
	fx := newSupplierFixture(t, tr, "127.0.0.1:0", 4, 2)
	// The proxy kills its first connection after 3 response frames.
	proxy := newFlakyProxy(t, fx.addr, 1, 3)

	m, err := NewNetMerger(MergerConfig{Transport: tr, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var specs []FetchSpec
	for task := range fx.segments {
		for p := 0; p < 2; p++ {
			specs = append(specs, FetchSpec{Addr: proxy.Addr(), MapTask: task, Partition: p})
		}
	}
	got := map[string][]byte{}
	err = m.Fetch(specs, func(s FetchSpec, data []byte) error {
		got[fmt.Sprintf("%s/%d", s.MapTask, s.Partition)] = bytes.Clone(data)
		return nil
	})
	if err != nil {
		t.Fatalf("fetch with retries failed: %v", err)
	}
	for task, parts := range fx.segments {
		for p, want := range parts {
			if !bytes.Equal(got[fmt.Sprintf("%s/%d", task, p)], want) {
				t.Fatalf("segment %s/%d corrupted after retry", task, p)
			}
		}
	}
	st := m.Stats()
	if st.Retries == 0 {
		t.Fatalf("no retries recorded despite killed connection: %+v", st)
	}
	if st.Errors != 0 {
		t.Fatalf("errors surfaced despite retry budget: %+v", st)
	}
}

func TestFetchRetriesExhausted(t *testing.T) {
	tr := transport.NewTCP()
	fx := newSupplierFixture(t, tr, "127.0.0.1:0", 2, 1)
	// Kill every connection immediately: retries cannot succeed.
	proxy := newFlakyProxy(t, fx.addr, 1<<30, 0)

	m, err := NewNetMerger(MergerConfig{Transport: tr, MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	var specs []FetchSpec
	for task := range fx.segments {
		specs = append(specs, FetchSpec{Addr: proxy.Addr(), MapTask: task, Partition: 0})
	}
	err = m.Fetch(specs, func(FetchSpec, []byte) error { return nil })
	if err == nil {
		t.Fatal("fetch succeeded through a connection-killing proxy")
	}
	if st := m.Stats(); st.Retries == 0 {
		t.Fatalf("no retries attempted: %+v", st)
	}
}

func TestZeroRetriesFailsFast(t *testing.T) {
	tr := transport.NewTCP()
	fx := newSupplierFixture(t, tr, "127.0.0.1:0", 1, 1)
	proxy := newFlakyProxy(t, fx.addr, 1, 0)

	m, _ := NewNetMerger(MergerConfig{Transport: tr}) // MaxRetries = 0
	defer m.Close()
	err := m.Fetch([]FetchSpec{{Addr: proxy.Addr(), MapTask: "m-00000", Partition: 0}},
		func(FetchSpec, []byte) error { return nil })
	if err == nil {
		t.Fatal("zero-retry fetch succeeded through killed connection")
	}
	if st := m.Stats(); st.Retries != 0 {
		t.Fatalf("retried despite MaxRetries=0: %+v", st)
	}
}

func TestMergerConfigRejectsNegativeRetries(t *testing.T) {
	if _, err := NewNetMerger(MergerConfig{Transport: transport.NewTCP(), MaxRetries: -1}); err == nil {
		t.Fatal("negative retries accepted")
	}
}

func TestSupplierCloseFailsInFlightFetch(t *testing.T) {
	tr := transport.NewTCP()
	fx := newSupplierFixture(t, tr, "127.0.0.1:0", 2, 1)
	m, _ := NewNetMerger(MergerConfig{Transport: tr})
	defer m.Close()

	// Prime the connection with one successful fetch.
	err := m.Fetch([]FetchSpec{{Addr: fx.addr, MapTask: "m-00000", Partition: 0}},
		func(FetchSpec, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// Kill the supplier; the next fetch must error out, not hang.
	fx.supplier.Close()
	done := make(chan error, 1)
	go func() {
		done <- m.Fetch([]FetchSpec{{Addr: fx.addr, MapTask: "m-00001", Partition: 0}},
			func(FetchSpec, []byte) error { return nil })
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("fetch against closed supplier succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fetch against closed supplier hung")
	}
}

func TestSupplierServesAcrossManyConnections(t *testing.T) {
	tr := transport.NewTCP()
	fx := newSupplierFixture(t, tr, "127.0.0.1:0", 3, 2)
	// Several independent mergers (as if from different nodes) hit the
	// same supplier concurrently.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := NewNetMerger(MergerConfig{Transport: tr})
			if err != nil {
				errs <- err
				return
			}
			defer m.Close()
			var specs []FetchSpec
			for task := range fx.segments {
				for p := 0; p < 2; p++ {
					specs = append(specs, FetchSpec{Addr: fx.addr, MapTask: task, Partition: p})
				}
			}
			n := 0
			if err := m.Fetch(specs, func(s FetchSpec, data []byte) error {
				if !bytes.Equal(data, fx.segments[s.MapTask][s.Partition]) {
					return fmt.Errorf("corrupt segment")
				}
				n++
				return nil
			}); err != nil {
				errs <- err
				return
			}
			if n != len(specs) {
				errs <- fmt.Errorf("got %d of %d", n, len(specs))
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
