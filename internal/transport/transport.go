// Package transport is JBS's network layer (Section IV): a framed,
// message-oriented API over TCP/IP sockets, plus the connection cache
// (connections are kept for reuse, at most 512 active, LRU teardown;
// Section IV-A). The paper's RDMA and RoCE backends are not emulated here:
// their handshake is internal/rdma and their cost internal/simnet. Other
// Transport implementations decorate TCP (internal/faultnet's fault
// injector, the repository benchmark's tracers).
package transport

import (
	"errors"
	"fmt"

	"repro/internal/bufpool"
)

// Errors returned by transports.
var (
	ErrConnClosed    = errors.New("transport: connection closed")
	ErrFrameTooLarge = errors.New("transport: frame exceeds limit")
	// ErrBackpressure marks a transient, flow-control-induced refusal:
	// the peer is overloaded but the connection itself is healthy. It is
	// raised by protocol layers (a shed response in internal/core), never
	// by the transports themselves.
	ErrBackpressure = errors.New("transport: peer backpressure")
)

// Transient reports whether err is a flow-control condition the caller
// should retry after backoff without tearing anything down, rather than
// a connection failure.
func Transient(err error) bool {
	return errors.Is(err, ErrBackpressure)
}

// MaxFrameSize bounds a single framed message. Fetch requests and transport
// buffers are far below this; it exists to fail fast on stream corruption.
const MaxFrameSize = 64 << 20

// DefaultBufferSize is the default transport buffer size: the largest
// chunk a supplier puts in one frame. The paper selects 128 KB after the
// Fig. 11 sweep.
const DefaultBufferSize = 128 << 10

// DefaultMaxConnections is the connection-cache limit (Section IV-A).
const DefaultMaxConnections = 512

// Conn is a framed, message-oriented connection. Send and Recv are safe for
// one concurrent sender and one concurrent receiver; multiple senders must
// serialize externally (the NetMerger's consolidation does exactly that).
type Conn interface {
	// Send transmits one framed message.
	Send(msg []byte) error
	// Recv returns the next framed message.
	Recv() ([]byte, error)
	// Close tears the connection down; blocked Send/Recv return errors.
	Close() error
	// RemoteAddr identifies the peer.
	RemoteAddr() string
}

// PooledReceiver is implemented by connections whose receive path can land
// frames in pooled buffers. TCP connections implement it; use the
// package-level RecvBuf to fall back gracefully on any Conn.
type PooledReceiver interface {
	// RecvBuf returns the next framed message in a leased buffer. The
	// caller owns the lease and must Release it exactly once.
	RecvBuf() (*bufpool.Lease, error)
}

// VectorSender is implemented by connections that can gather one framed
// message from several slices without coalescing (writev on TCP). Use the
// package-level SendVec to fall back gracefully on any Conn.
type VectorSender interface {
	// SendVec transmits the concatenation of bufs as one framed message.
	SendVec(bufs [][]byte) error
}

// RecvBuf receives one framed message into a leased buffer, using the
// connection's pooled path when it has one and adopting the plain Recv
// allocation otherwise. Either way the caller holds exactly one lease
// reference to Release.
func RecvBuf(c Conn) (*bufpool.Lease, error) {
	if pr, ok := c.(PooledReceiver); ok {
		return pr.RecvBuf()
	}
	msg, err := c.Recv()
	if err != nil {
		return nil, err
	}
	return bufpool.Default().Adopt(msg), nil
}

// SendVec transmits the concatenation of bufs as one framed message,
// gathering on capable connections and coalescing through a pooled buffer
// otherwise.
func SendVec(c Conn, bufs ...[]byte) error {
	if vs, ok := c.(VectorSender); ok {
		return vs.SendVec(bufs)
	}
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	l := bufpool.Default().Get(total)
	msg := l.Bytes()[:0]
	for _, b := range bufs {
		msg = append(msg, b...)
	}
	err := c.Send(msg)
	l.Release()
	return err
}

// Listener accepts incoming connections.
type Listener interface {
	// Accept returns the next incoming connection.
	Accept() (Conn, error)
	// Close stops listening; blocked Accepts return an error.
	Close() error
	// Addr returns the bound address (useful when listening on ":0").
	Addr() string
}

// Transport is one network backend.
type Transport interface {
	// Name identifies the backend ("tcp").
	Name() string
	// Listen binds a listener at addr.
	Listen(addr string) (Listener, error)
	// Dial connects to addr.
	Dial(addr string) (Conn, error)
}

// Config carries the network tunables.
type Config struct {
	// BufferSize is the transport buffer size in bytes (Fig. 11 knob).
	BufferSize int
	// MaxConnections caps cached connections (512 in the paper).
	MaxConnections int
}

// DefaultConfig returns the paper's defaults.
func DefaultConfig() Config {
	return Config{
		BufferSize:     DefaultBufferSize,
		MaxConnections: DefaultMaxConnections,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BufferSize <= 0 {
		return fmt.Errorf("transport: buffer size %d must be positive", c.BufferSize)
	}
	if c.BufferSize > MaxFrameSize {
		return fmt.Errorf("transport: buffer size %d exceeds frame limit %d", c.BufferSize, MaxFrameSize)
	}
	if c.MaxConnections <= 0 {
		return fmt.Errorf("transport: max connections %d must be positive", c.MaxConnections)
	}
	return nil
}
