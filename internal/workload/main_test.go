package workload

import (
	"os"
	"testing"

	"repro/internal/bufpool"
)

// TestMain runs every job of the package with released pool buffers
// overwritten: the segments a reducer merges are lent out of that pool, and
// one that reads them after giving them back must not get away with it.
func TestMain(m *testing.M) {
	bufpool.PoisonReleased(true)
	os.Exit(m.Run())
}
