package testgoroutine_test

import (
	"testing"

	tg "repro/internal/analysis/testdata/testgoroutine"
)

type rig struct {
	tb   testing.TB
	done chan struct{}
}

func (r *rig) read() {
	defer close(r.done)
	if tg.Work() != 42 {
		r.tb.Fatal("external test packages are scanned too") // want "testing.Fatal called from a goroutine"
	}
}

func TestExternalPackageViolation(t *testing.T) {
	r := &rig{tb: t, done: make(chan struct{})}
	go r.read()
	<-r.done
}
