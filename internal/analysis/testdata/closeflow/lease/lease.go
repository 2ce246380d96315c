// Package lease is the closeflow golden fixture for the two lease types,
// *bufpool.Lease and *mof.FileHandle. Each `// want "substr"` marks a
// line where a finding must land; functions without one analyse clean.
package lease

import (
	"repro/internal/bufpool"
	"repro/internal/mof"
)

// holder stores a lease; assigning into it transfers ownership.
type holder struct {
	l *bufpool.Lease
}

// ---- clean cases ----

func cleanStraightLine(p *bufpool.Pool) int {
	l := p.Get(64)
	n := l.Len()
	l.Release()
	return n
}

// cleanEarlyError is the tcp.RecvBuf shape: release before the error
// return, transfer by returning on success.
func cleanEarlyError(p *bufpool.Pool, read func([]byte) error) (*bufpool.Lease, error) {
	l := p.Get(128)
	if err := read(l.Bytes()); err != nil {
		l.Release()
		return nil, err
	}
	return l, nil
}

// cleanErrConvention relies on nil-on-error: no obligation on the
// err != nil branch.
func cleanErrConvention(c *mof.FileCache) error {
	h, err := c.Acquire("seg")
	if err != nil {
		return err
	}
	defer h.Release()
	return nil
}

func cleanDefer(p *bufpool.Pool) int {
	l := p.Get(8)
	defer l.Release()
	return l.Len()
}

func cleanLoop(p *bufpool.Pool, n int) {
	for i := 0; i < n; i++ {
		l := p.Get(16)
		l.Release()
	}
}

func cleanReturnTransfer(p *bufpool.Pool) *bufpool.Lease {
	return p.Get(8)
}

func cleanStoreField(p *bufpool.Pool, h *holder) {
	h.l = p.Get(8)
}

func cleanCompositeLit(p *bufpool.Pool) holder {
	l := p.Get(8)
	return holder{l: l}
}

func cleanAppend(p *bufpool.Pool, ls []*bufpool.Lease) []*bufpool.Lease {
	l := p.Get(8)
	return append(ls, l)
}

func cleanSend(p *bufpool.Pool, ch chan *bufpool.Lease) {
	l := p.Get(8)
	ch <- l
}

func cleanGoHandoff(p *bufpool.Pool) {
	l := p.Get(8)
	go func() {
		l.Release()
	}()
}

// regrow consumes l and produces a larger lease carrying its bytes.
func regrow(p *bufpool.Pool, l *bufpool.Lease, n int) *bufpool.Lease {
	nl := p.Get(n)
	copy(nl.Bytes(), l.Bytes())
	l.Release()
	return nl
}

// cleanGrowRebind consumes and produces in one statement: the kill on the
// old lease must be ordered before the new binding.
func cleanGrowRebind(p *bufpool.Pool) {
	l := p.Get(8)
	l = regrow(p, l, 64)
	l.Release()
}

// consume releases its argument, so callers transfer ownership to it —
// discovered interprocedurally from the body, no annotation needed.
func consume(l *bufpool.Lease) {
	l.Release()
}

func cleanHelperTransfer(p *bufpool.Pool) {
	l := p.Get(8)
	consume(l)
}

// sink takes ownership by contract (the real-world analogue registers
// the lease with an external lifetime manager).
//
//jbsvet:owns
func sink(l *bufpool.Lease) {
	_ = l
}

func cleanAnnotatedTransfer(p *bufpool.Pool) {
	sink(p.Get(8))
}

// ---- violating cases ----

// peek borrows: returning l.Len() does not discharge the caller.
func peek(l *bufpool.Lease) int {
	return l.Len()
}

// leakBelowEarlyReturn acquires after a prior branch: the solver must
// propagate through blocks whose first-frontier state is empty (the
// shape of transport's RecvBuf, which begins with a header read).
func leakBelowEarlyReturn(p *bufpool.Pool, ready func() error, read func([]byte) error) (*bufpool.Lease, error) {
	if err := ready(); err != nil {
		return nil, err
	}
	l := p.Get(64) // want "may not be released or ownership-transferred on every path"
	if err := read(l.Bytes()); err != nil {
		return nil, err
	}
	return l, nil
}

// cleanBelowEarlyReturn is the same shape with the release in place.
func cleanBelowEarlyReturn(p *bufpool.Pool, ready func() error, read func([]byte) error) (*bufpool.Lease, error) {
	if err := ready(); err != nil {
		return nil, err
	}
	l := p.Get(64)
	if err := read(l.Bytes()); err != nil {
		l.Release()
		return nil, err
	}
	return l, nil
}

func leakOnEarlyReturn(p *bufpool.Pool, read func([]byte) error) (*bufpool.Lease, error) {
	l := p.Get(128) // want "may not be released or ownership-transferred on every path"
	if err := read(l.Bytes()); err != nil {
		return nil, err
	}
	return l, nil
}

func leakAfterErrCheck(c *mof.FileCache) (string, error) {
	h, err := c.Acquire("seg") // want "may not be released or ownership-transferred on every path"
	if err != nil {
		return "", err
	}
	return h.File().Name(), nil
}

func leakDiscardedResult(p *bufpool.Pool) {
	p.Get(32) // want "result of Get is discarded"
}

func leakBlankAssign(c *mof.FileCache) error {
	_, err := c.Acquire("x") // want "assigned to _ and never released"
	return err
}

func leakThroughBorrow(p *bufpool.Pool) int {
	l := p.Get(8) // want "may not be released or ownership-transferred on every path"
	return peek(l)
}

func leakAdopt(p *bufpool.Pool, buf []byte) {
	l := p.Adopt(buf) // want "may not be released or ownership-transferred on every path"
	_ = l
}

func leakDeferInLoop(p *bufpool.Pool, names []string) {
	for range names {
		l := p.Get(16)
		defer l.Release() // want "deferred release inside loop runs at function exit"
	}
}

func leakInLiteral(p *bufpool.Pool) func() {
	return func() {
		l := p.Get(8) // want "may not be released or ownership-transferred on every path"
		_ = l
	}
}
