package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/bufpool"
)

// TCP is the TCP/IP backend. It mirrors the paper's Section IV-B design in
// Go idiom: the kernel's readiness machinery replaces explicit epoll, and
// per-connection data goroutines replace the data threads.
type TCP struct{}

// NewTCP returns the TCP backend.
func NewTCP() *TCP { return &TCP{} }

// Name returns "tcp".
func (*TCP) Name() string { return "tcp" }

// Listen binds a TCP listener. Use "127.0.0.1:0" to let the kernel choose a
// port and read it back from Addr.
func (*TCP) Listen(addr string) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: tcp listen %s: %w", addr, err)
	}
	return &tcpListener{nl: nl}, nil
}

// dialTimeout bounds connection establishment so a dead node fails a
// fetch promptly instead of hanging a copier.
const dialTimeout = 10 * time.Second

// Dial connects to a TCP address.
func (*TCP) Dial(addr string) (Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: tcp dial %s: %w", addr, err)
	}
	return newTCPConn(nc), nil
}

type tcpListener struct {
	nl net.Listener
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, fmt.Errorf("transport: tcp accept: %w", err)
	}
	return newTCPConn(nc), nil
}

func (l *tcpListener) Close() error { return l.nl.Close() }

func (l *tcpListener) Addr() string { return l.nl.Addr().String() }

// tcpConn frames messages with a 4-byte big-endian length prefix. Header
// and payload leave in one vectored write (writev), so a frame costs a
// single syscall and no coalescing copy.
type tcpConn struct {
	nc net.Conn
	br *bufio.Reader

	sendMu  sync.Mutex
	sendHdr [4]byte     // frame header scratch, guarded by sendMu
	single  [1][]byte   // Send's one-slice gather view, guarded by sendMu
	vecsArr [][]byte    // writev gather scratch, guarded by sendMu
	vecs    net.Buffers // WriteTo cursor over vecsArr, guarded by sendMu

	recvMu  sync.Mutex
	recvHdr [4]byte // frame header scratch, guarded by recvMu

	closeOnce sync.Once
	closeErr  error
}

func newTCPConn(nc net.Conn) *tcpConn {
	return &tcpConn{nc: nc, br: bufio.NewReaderSize(nc, 256<<10)}
}

func (c *tcpConn) Send(msg []byte) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.single[0] = msg
	err := c.writeFrame(len(msg), c.single[:])
	c.single[0] = nil
	return err
}

// SendVec transmits one framed message gathered from several slices: the
// frame header and every slice go to the kernel in one writev, so the
// caller can pass a protocol header and a cached segment payload without
// concatenating them.
func (c *tcpConn) SendVec(bufs [][]byte) error {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return c.writeFrame(total, bufs)
}

// writeFrame issues one vectored write of header + bufs. Callers hold
// sendMu.
func (c *tcpConn) writeFrame(total int, bufs [][]byte) error {
	if total > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, total)
	}
	binary.BigEndian.PutUint32(c.sendHdr[:], uint32(total))
	c.vecsArr = append(c.vecsArr[:0], c.sendHdr[:])
	for _, b := range bufs {
		if len(b) > 0 {
			c.vecsArr = append(c.vecsArr, b)
		}
	}
	start := time.Now()
	// WriteTo consumes its receiver in place, so give it a throwaway cursor
	// over the scratch; vecsArr keeps the backing array for the next frame.
	c.vecs = net.Buffers(c.vecsArr)
	if _, err := c.vecs.WriteTo(c.nc); err != nil {
		return c.mapErr(err)
	}
	sendNS.Observe(time.Since(start).Nanoseconds())
	sentFrames.Inc()
	sentBytes.Add(int64(total))
	return nil
}

// recvHeader reads one frame header and validates the length. Callers hold
// recvMu.
func (c *tcpConn) recvHeader() (int, error) {
	if _, err := io.ReadFull(c.br, c.recvHdr[:]); err != nil {
		return 0, c.mapErr(err)
	}
	n := binary.BigEndian.Uint32(c.recvHdr[:])
	if n > MaxFrameSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	return int(n), nil
}

func (c *tcpConn) Recv() ([]byte, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	n, err := c.recvHeader()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	msg := make([]byte, n)
	if _, err := io.ReadFull(c.br, msg); err != nil {
		return nil, c.mapErr(err)
	}
	recvNS.Observe(time.Since(start).Nanoseconds())
	recvFrames.Inc()
	recvBytes.Add(int64(n))
	return msg, nil
}

// RecvBuf is the pooled variant of Recv: the frame lands in a buffer
// leased from the shared pool, so steady-state receive loops allocate
// nothing. The caller owns the lease and must Release it (or hand it on)
// exactly once.
func (c *tcpConn) RecvBuf() (*bufpool.Lease, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	n, err := c.recvHeader()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	l := bufpool.Default().Get(n)
	if _, err := io.ReadFull(c.br, l.Bytes()); err != nil {
		l.Release()
		return nil, c.mapErr(err)
	}
	recvNS.Observe(time.Since(start).Nanoseconds())
	recvFrames.Inc()
	recvBytes.Add(int64(n))
	return l, nil
}

func (c *tcpConn) mapErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) {
		return ErrConnClosed
	}
	return err
}

func (c *tcpConn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.nc.Close() })
	return c.closeErr
}

func (c *tcpConn) RemoteAddr() string { return c.nc.RemoteAddr().String() }
