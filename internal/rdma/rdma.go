// Package rdma models the rdma_cm connection manager the paper's JBS
// transport is built on (Section IV-A, Fig. 6): a client allocates a
// connection and calls rdma_connect; the server's event thread sees a
// CONNECT_REQUEST on its event channel, allocates a connection, and calls
// rdma_accept; both sides then observe an ESTABLISHED event. A server may
// reject the request instead, and either side may later disconnect.
//
// Only the handshake is modelled, in process memory: addresses are strings
// and events travel on channels. No data moves over a ConnID. The shuffle's
// bytes travel over internal/transport's TCP backend, and the cost of RDMA
// verbs in the paper's figures comes from internal/simnet's fabric models.
package rdma

import (
	"errors"
	"fmt"
	"sync"
)

// Errors returned by the connection manager.
var (
	ErrAddrInUse  = errors.New("rdma: address already in use")
	ErrNoListener = errors.New("rdma: no listener at address")
	ErrBadState   = errors.New("rdma: invalid connection state for operation")
)

// CMEventType enumerates connection-manager events (subset of rdma_cm).
type CMEventType int

const (
	// ConnectRequest is delivered to a listener when a client calls
	// Connect; the event carries the server-side ConnID to Accept or
	// Reject.
	ConnectRequest CMEventType = iota
	// Established is delivered to both sides once Accept completes.
	Established
	// Disconnected is delivered to both sides when either disconnects.
	Disconnected
	// Rejected is delivered to the client when the server rejects.
	Rejected
)

// String names the event type.
func (t CMEventType) String() string {
	switch t {
	case ConnectRequest:
		return "CONNECT_REQUEST"
	case Established:
		return "ESTABLISHED"
	case Disconnected:
		return "DISCONNECTED"
	case Rejected:
		return "REJECTED"
	default:
		return fmt.Sprintf("cm-event(%d)", int(t))
	}
}

// CMEvent is one connection-manager event on an event channel.
type CMEvent struct {
	Type CMEventType
	// ID is the connection the event concerns. For ConnectRequest it is a
	// newly allocated server-side connection.
	ID *ConnID
}

// connState tracks the Fig. 6 state machine.
type connState int

const (
	stateIdle connState = iota
	stateConnecting
	stateRequestDelivered // server side: request surfaced, awaiting Accept
	stateEstablished
	stateClosed
)

// listenBacklog bounds the connection requests a listener holds before its
// event thread takes them (rdma_listen's backlog).
const listenBacklog = 128

// Fabric is an in-process connection-manager domain. Addresses are
// arbitrary strings (conventionally "node:service").
type Fabric struct {
	// mu guards listeners and the state and peer of every ConnID and
	// Listener on the fabric.
	mu        sync.Mutex
	listeners map[string]*Listener
}

// NewFabric creates an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{listeners: make(map[string]*Listener)}
}

// Listener waits for connection requests at an address (rdma_listen).
type Listener struct {
	fabric *Fabric
	addr   string
	events chan CMEvent
	closed bool
}

// Listen registers a listener at addr.
func (f *Fabric) Listen(addr string) (*Listener, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.listeners[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	l := &Listener{fabric: f, addr: addr, events: make(chan CMEvent, listenBacklog)}
	f.listeners[addr] = l
	return l, nil
}

// Events returns the listener's CM event channel; ConnectRequest events
// arrive here. A dedicated network thread normally drains this channel, as
// in the paper's RDMAServer.
func (l *Listener) Events() <-chan CMEvent { return l.events }

// Close unregisters the listener. Pending undelivered requests are dropped.
func (l *Listener) Close() error {
	l.fabric.mu.Lock()
	defer l.fabric.mu.Unlock()
	if !l.closed {
		l.closed = true
		delete(l.fabric.listeners, l.addr)
		close(l.events)
	}
	return nil
}

// ConnID is the modelled rdma_cm_id: one endpoint of a (potential)
// connection.
type ConnID struct {
	fabric *Fabric
	events chan CMEvent
	state  connState
	peer   *ConnID
}

// NewConnID allocates a client-side connection identifier ("alloc conn" in
// Fig. 6).
func (f *Fabric) NewConnID() *ConnID {
	return &ConnID{fabric: f, events: make(chan CMEvent, 16)}
}

// Events returns this connection's CM event channel (Established,
// Disconnected, Rejected).
func (id *ConnID) Events() <-chan CMEvent { return id.events }

// Connect sends a connection request to the listener at addr
// (rdma_connect). The call is asynchronous like the real verb: success
// means the request was delivered; the caller must wait for Established
// (or Rejected) on Events.
func (id *ConnID) Connect(addr string) error {
	f := id.fabric
	f.mu.Lock()
	defer f.mu.Unlock()
	if id.state != stateIdle {
		return ErrBadState
	}
	l, ok := f.listeners[addr]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoListener, addr)
	}
	// Allocate the server-side connection carried by the request event.
	server := &ConnID{fabric: f, events: make(chan CMEvent, 16), state: stateRequestDelivered, peer: id}
	select {
	case l.events <- CMEvent{Type: ConnectRequest, ID: server}:
	default:
		return fmt.Errorf("rdma: listener backlog full at %s", addr)
	}
	id.state, id.peer = stateConnecting, server
	return nil
}

// Accept accepts a connection request (rdma_accept). Valid only on the
// server-side ConnID delivered by a ConnectRequest event. On success both
// sides receive Established.
func (id *ConnID) Accept() error {
	f := id.fabric
	f.mu.Lock()
	client := id.peer
	if id.state != stateRequestDelivered || client.state != stateConnecting {
		f.mu.Unlock()
		return ErrBadState
	}
	id.state, client.state = stateEstablished, stateEstablished
	f.mu.Unlock()

	// Both network threads detect the established event.
	id.events <- CMEvent{Type: Established, ID: id}
	client.events <- CMEvent{Type: Established, ID: client}
	return nil
}

// Reject declines a connection request; the client receives Rejected and
// may connect again.
func (id *ConnID) Reject() error {
	f := id.fabric
	f.mu.Lock()
	if id.state != stateRequestDelivered {
		f.mu.Unlock()
		return ErrBadState
	}
	client := id.peer
	id.state, id.peer = stateClosed, nil
	client.state, client.peer = stateIdle, nil
	f.mu.Unlock()
	client.events <- CMEvent{Type: Rejected, ID: client}
	return nil
}

// Disconnect tears down an established connection. Both sides receive
// Disconnected.
func (id *ConnID) Disconnect() error {
	f := id.fabric
	f.mu.Lock()
	if id.state != stateEstablished {
		f.mu.Unlock()
		return ErrBadState
	}
	peer := id.peer
	notifyPeer := peer.state != stateClosed
	id.state, peer.state = stateClosed, stateClosed
	f.mu.Unlock()

	id.events <- CMEvent{Type: Disconnected, ID: id}
	if notifyPeer {
		peer.events <- CMEvent{Type: Disconnected, ID: peer}
	}
	return nil
}
