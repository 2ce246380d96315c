package daemon

import (
	"testing"

	"repro/internal/bufpool"
	"repro/internal/leakcheck"
)

// Released pool buffers are overwritten for the whole package: RunMergerJob
// verifies segments it is only lent, and must have finished with each one
// before the merger takes it back.
func TestMain(m *testing.M) {
	bufpool.PoisonReleased(true)
	leakcheck.Main(m)
}
