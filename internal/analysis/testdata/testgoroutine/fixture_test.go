package testgoroutine

import (
	"sync"
	"testing"
)

// checker is a rig whose method is launched as a goroutine and reaches
// the T through its receiver — the shape go vet does not follow.
type checker struct {
	t  *testing.T
	wg sync.WaitGroup
}

func (c *checker) run() {
	defer c.wg.Done()
	c.t.Fatalf("from a rig method: %d", Work()) // want "testing.Fatalf called from a goroutine"
}

func (c *checker) retry() {
	defer c.wg.Done()
	again := func() {
		c.t.FailNow() // want "testing.FailNow called from a goroutine"
	}
	again()
}

func (c *checker) report() {
	defer c.wg.Done()
	c.t.Errorf("goroutine-safe: %d", Work()) // Error/Errorf are allowed
	c.t.Log("so is Log")
}

func TestRigMethods(t *testing.T) {
	c := &checker{t: t}
	c.wg.Add(4)
	go c.run()
	go c.run() // a second launch of the same method must not duplicate findings
	go c.retry()
	go c.report()
	c.wg.Wait()
}

// Literals and functions handed the T are go vet's testinggoroutine
// territory: not flagged here.

func helperFunc(t *testing.T, done chan struct{}) {
	defer close(done)
	t.SkipNow()
}

func TestVetCovers(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		if Work() != 42 {
			t.Fatal("bad answer")
		}
	}()
	<-done
	done2 := make(chan struct{})
	go helperFunc(t, done2)
	<-done2
}

func TestSubtestsAreNotGoroutines(t *testing.T) {
	t.Run("sub", func(t *testing.T) {
		t.Fatalf("subtest body runs on its own test goroutine: %d", Work())
	})
}
