package rdma

import (
	"errors"
	"sync"
	"testing"
)

// established reads a ConnID's state the way the fabric guards it.
func established(id *ConnID) bool {
	id.fabric.mu.Lock()
	defer id.fabric.mu.Unlock()
	return id.state == stateEstablished
}

// establish builds a connected client/server pair following the Fig. 6
// sequence and returns both established ConnIDs.
func establish(t *testing.T, f *Fabric, addr string) (client, server *ConnID) {
	t.Helper()
	l, err := f.Listen(addr)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })

	// Server network thread: accept the first request.
	serverCh := make(chan *ConnID, 1)
	go func() {
		ev := <-l.Events()
		if ev.Type != ConnectRequest {
			t.Errorf("server got %v, want CONNECT_REQUEST", ev.Type)
			return
		}
		if err := ev.ID.Accept(); err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		// Wait for our own Established event.
		ev2 := <-ev.ID.Events()
		if ev2.Type != Established {
			t.Errorf("server got %v, want ESTABLISHED", ev2.Type)
		}
		serverCh <- ev.ID
	}()

	client = f.NewConnID()
	if err := client.Connect(addr); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	ev := <-client.Events()
	if ev.Type != Established {
		t.Fatalf("client got %v, want ESTABLISHED", ev.Type)
	}
	server = <-serverCh
	return client, server
}

func TestConnectionEstablishmentFig6(t *testing.T) {
	f := NewFabric()
	if established(f.NewConnID()) {
		t.Fatal("a fresh ConnID reports established")
	}
	client, server := establish(t, f, "node1:9010")
	if !established(client) || !established(server) {
		t.Fatalf("after the handshake: client %v, server %v, want both established",
			established(client), established(server))
	}
}

func TestConnectNoListener(t *testing.T) {
	f := NewFabric()
	c := f.NewConnID()
	err := c.Connect("nowhere:1")
	if !errors.Is(err, ErrNoListener) {
		t.Fatalf("err = %v, want ErrNoListener", err)
	}
	// The ConnID must be reusable after a failed connect.
	l, _ := f.Listen("somewhere:1")
	defer l.Close()
	go func() {
		ev := <-l.Events()
		ev.ID.Accept()
	}()
	if err := c.Connect("somewhere:1"); err != nil {
		t.Fatalf("reconnect: %v", err)
	}
}

// TestConnectBacklogFull: a listener whose event thread has fallen
// listenBacklog requests behind refuses the next one, and the refused
// ConnID may try again.
func TestConnectBacklogFull(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen("busy:1")
	defer l.Close()
	for i := 0; i < listenBacklog; i++ {
		if err := f.NewConnID().Connect("busy:1"); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	c := f.NewConnID()
	if err := c.Connect("busy:1"); err == nil {
		t.Fatal("request beyond the backlog was accepted")
	}
	<-l.Events()
	if err := c.Connect("busy:1"); err != nil {
		t.Fatalf("retry once the backlog drained: %v", err)
	}
}

func TestListenAddrInUse(t *testing.T) {
	f := NewFabric()
	l, err := f.Listen("a:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := f.Listen("a:1"); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("second Listen err = %v, want ErrAddrInUse", err)
	}
}

func TestListenerCloseFreesAddr(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen("a:1")
	l.Close()
	l2, err := f.Listen("a:1")
	if err != nil {
		t.Fatalf("Listen after Close: %v", err)
	}
	l2.Close()
}

func TestReject(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen("s:1")
	defer l.Close()
	go func() {
		ev := <-l.Events()
		ev.ID.Reject()
	}()
	c := f.NewConnID()
	if err := c.Connect("s:1"); err != nil {
		t.Fatal(err)
	}
	ev := <-c.Events()
	if ev.Type != Rejected {
		t.Fatalf("client got %v, want REJECTED", ev.Type)
	}
	if established(c) {
		t.Fatal("rejected ConnID reports established")
	}
}

func TestDisconnectFlushesBothSides(t *testing.T) {
	f := NewFabric()
	client, server := establish(t, f, "n:1")

	if err := client.Disconnect(); err != nil {
		t.Fatal(err)
	}
	if ev := <-client.Events(); ev.Type != Disconnected {
		t.Fatalf("client event = %v, want DISCONNECTED", ev.Type)
	}
	if ev := <-server.Events(); ev.Type != Disconnected {
		t.Fatalf("server event = %v, want DISCONNECTED", ev.Type)
	}
	if established(client) || established(server) {
		t.Fatal("a side still reports established after disconnect")
	}
	// Double disconnect is an error (already closed), from either side.
	if err := client.Disconnect(); !errors.Is(err, ErrBadState) {
		t.Fatalf("second disconnect: %v, want ErrBadState", err)
	}
	if err := server.Disconnect(); !errors.Is(err, ErrBadState) {
		t.Fatalf("peer disconnect after close: %v, want ErrBadState", err)
	}
}

func TestManyConcurrentConnections(t *testing.T) {
	f := NewFabric()
	l, err := f.Listen("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Server network thread accepts everything.
	go func() {
		for ev := range l.Events() {
			if ev.Type == ConnectRequest {
				ev.ID.Accept()
			}
		}
	}()

	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := f.NewConnID()
			if err := c.Connect("srv:1"); err != nil {
				errs <- err
				return
			}
			if ev := <-c.Events(); ev.Type != Established || !established(c) {
				errs <- errors.New("not established")
				return
			}
			if err := c.Disconnect(); err != nil {
				errs <- err
				return
			}
			if ev := <-c.Events(); ev.Type != Disconnected {
				errs <- errors.New("no disconnect event")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestEventStrings(t *testing.T) {
	if CMEventType(9).String() == "" {
		t.Error("defensive string empty")
	}
	names := map[CMEventType]string{
		ConnectRequest: "CONNECT_REQUEST", Established: "ESTABLISHED",
		Disconnected: "DISCONNECTED", Rejected: "REJECTED",
	}
	for ev, name := range names {
		if ev.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(ev), ev.String(), name)
		}
	}
}
