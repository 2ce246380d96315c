package generics

import (
	"testing"

	"repro/internal/bufpool"
)

// The in-package test unit re-parses the base files merged with this one;
// the checks must still resolve apply's Origin and analyze clean.
func TestGenericLease(t *testing.T) {
	p := bufpool.New()
	n := apply(p.Get(4), func(l *bufpool.Lease) int { return len(l.Bytes()) })
	if n < 4 {
		t.Fatal(n)
	}
}
