// Package gofix is a golden-file fixture for the goroutines check.
package gofix

import (
	"context"
	"sync"
)

type W struct {
	wg   sync.WaitGroup
	done chan struct{}
	work chan int
}

func process(int) {}

// FireAndForget spins forever with no shutdown path.
func (w *W) FireAndForget() {
	go func() { // want "fire-and-forget goroutine"
		for {
			process(0)
		}
	}()
}

// Joined is collectable through the WaitGroup.
func (w *W) Joined() {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		process(1)
	}()
}

// Stoppable observes the done channel.
func (w *W) Stoppable() {
	go func() {
		for {
			select {
			case v := <-w.work:
				process(v)
			case <-w.done:
				return
			}
		}
	}()
}

// Cancellable observes a context.
func (w *W) Cancellable(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// RangeWorker terminates when the producer closes the feed channel.
func (w *W) RangeWorker() {
	go func() {
		for v := range w.work {
			process(v)
		}
	}()
}

// StartLoop launches a named method: not checked, since losing the
// loop's join hangs its owner's Close in every test that closes it.
func (w *W) StartLoop() {
	go w.loop()
}

func (w *W) loop() {
	for {
		process(0)
	}
}

// External launches a function value: not checked either.
func (w *W) External(f func()) {
	go f()
}
