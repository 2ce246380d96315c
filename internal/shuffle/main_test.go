package shuffle

import (
	"testing"

	"repro/internal/bufpool"
	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaks a goroutine past teardown
// (see internal/leakcheck): every supplier loop, merger reader, and
// transport event thread must be reachable from a shutdown path.
//
// Released pool buffers are overwritten for the whole package: every job
// here merges segments the JBS fetcher only lends it.
func TestMain(m *testing.M) {
	bufpool.PoisonReleased(true)
	leakcheck.Main(m)
}
