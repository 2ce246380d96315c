package flow

import (
	"math/rand/v2"
	"testing"

	"repro/internal/sim"
)

// TestOverloadConvergesSim proves the shed→backoff→retry loop converges
// on a deterministic discrete-event model of the full control loop: two
// merger clients drive AIMD windows against one supplier whose admission
// ledger is far too small for the offered load. Every run is identical
// (seeded jitter, sim clocks). The invariants: every segment is
// delivered exactly once (nothing lost, nothing duplicated), shedding
// actually happened (the scenario really overloads), and the ledger
// balance returns to zero.
func TestOverloadConvergesSim(t *testing.T) {
	const (
		segSize     = 100 << 10 // bytes per segment
		segsPerJob  = 40
		jobs        = 2
		serviceTime = 0.010 // seconds to stage+transmit one segment
		retryAfter  = 0.004 // supplier's shed hint, seconds
	)
	cfg := Config{
		// Room for ~4 resident segments, ~2 more queued: with two
		// clients opening 4-wide windows the supplier must shed.
		AdmitBytes:  4 * segSize,
		WindowStart: 4,
		WindowMax:   16,
	}
	if err := cfg.ApplyDefaults(); err != nil {
		t.Fatal(err)
	}

	eng := sim.NewEngine()
	ledger := NewLedger(cfg)
	rng := rand.New(rand.NewPCG(42, 7)) // deterministic jitter

	delivered := make(map[int]int) // segment id -> delivery count
	var sheds, busy int

	type client struct {
		win      *Window
		pending  []int // segment ids not yet in flight
		inflight int
	}
	clients := make([]*client, jobs)
	for j := range clients {
		c := &client{win: NewWindow(cfg, nil)}
		for s := 0; s < segsPerJob; s++ {
			c.pending = append(c.pending, j*segsPerJob+s)
		}
		clients[j] = c
	}

	// The supplier serves admitted segments with a fixed concurrency of
	// one (busy flag + FIFO would be fancier; serialized service is the
	// worst case for convergence). Completion releases the ledger charge
	// and, on recovery, grants one credit to every client.
	var serveQueue []func()
	var serveNext func()
	serveNext = func() {
		if busy == 1 || len(serveQueue) == 0 {
			return
		}
		busy = 1
		run := serveQueue[0]
		serveQueue = serveQueue[1:]
		eng.After(serviceTime, func() {
			busy = 0
			run()
			serveNext()
		})
	}

	var pump func(c *client)
	request := func(c *client, id int) {
		c.inflight++
		switch ledger.Admit(segSize) {
		case Shed:
			sheds++
			c.win.OnShed()
			// Jittered backoff, exactly as the NetMerger computes it.
			delay := retryAfter + float64(rng.Int64N(int64(retryAfter*1e9)/2+1))/1e9
			eng.After(delay, func() {
				c.inflight--
				c.pending = append([]int{id}, c.pending...)
				pump(c)
			})
		default:
			serveQueue = append(serveQueue, func() {
				delivered[id]++
				if ledger.Release(segSize) {
					for _, cc := range clients {
						cc.win.OnCredit()
					}
				}
				c.inflight--
				c.win.OnClean()
				pump(c)
				// A credit may have widened the other client's window too.
				for _, cc := range clients {
					pump(cc)
				}
			})
			serveNext()
		}
	}
	pump = func(c *client) {
		for c.inflight < c.win.Limit() && len(c.pending) > 0 {
			id := c.pending[0]
			c.pending = c.pending[1:]
			request(c, id)
		}
	}

	for _, c := range clients {
		eng.At(0, func() { pump(c) })
	}
	eng.Run()

	total := jobs * segsPerJob
	if len(delivered) != total {
		t.Fatalf("delivered %d distinct segments, want %d (lost %d)",
			len(delivered), total, total-len(delivered))
	}
	for id, n := range delivered {
		if n != 1 {
			t.Errorf("segment %d delivered %d times, want exactly once", id, n)
		}
	}
	if sheds == 0 {
		t.Fatal("scenario produced no sheds: it does not exercise overload")
	}
	if got := ledger.Used(); got != 0 {
		t.Errorf("ledger balance %d after drain, want 0", got)
	}
	t.Logf("converged at t=%.3fs with %d sheds over %d segments", eng.Now(), sheds, total)
}
