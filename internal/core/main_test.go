package core

import (
	"testing"

	"repro/internal/bufpool"
	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaks a goroutine past teardown
// (see internal/leakcheck): every supplier loop, merger reader, and
// transport event thread must be reachable from a shutdown path.
//
// Every test also runs with released pool buffers overwritten, so a
// consumer that reads a lent segment after giving it back fails loudly.
func TestMain(m *testing.M) {
	bufpool.PoisonReleased(true)
	leakcheck.Main(m)
}

// poolBalanced fails t if, once everything it went on to register has been
// torn down, the shared pool has more leases out than when it was called:
// a receive lease, a partial reassembly or a staged segment that some exit
// forgot. The supplier fixtures call it first, so it runs after their
// Close and after the test's own deferred merger Close.
func poolBalanced(t testing.TB) {
	t.Helper()
	before := bufpool.Default().Outstanding()
	t.Cleanup(func() {
		if after := bufpool.Default().Outstanding(); after != before {
			t.Errorf("bufpool: %d leases outstanding after teardown, %d before the test", after, before)
		}
	})
}
