package flow

import (
	"sync"
	"testing"
)

// ledgerCfg builds a defaulted config with the given accept budget; the
// queue allowance is half of it.
func ledgerCfg(t *testing.T, admit int64) Config {
	t.Helper()
	cfg := Config{AdmitBytes: admit}
	if err := cfg.ApplyDefaults(); err != nil {
		t.Fatalf("config: %v", err)
	}
	return cfg
}

func TestLedgerDecisions(t *testing.T) {
	l := NewLedger(ledgerCfg(t, 100)) // accept < 100, shed > 150

	if d := l.Admit(60); d != Accept {
		t.Fatalf("first 60 = %v, want accept", d)
	}
	if d := l.Admit(60); d != Queue {
		t.Fatalf("second 60 (total 120) = %v, want queue", d)
	}
	if d := l.Admit(60); d != Shed {
		t.Fatalf("third 60 (would be 180) = %v, want shed", d)
	}
	if got := l.Used(); got != 120 {
		t.Fatalf("Used() = %d after shed, want 120 (sheds charge nothing)", got)
	}
	st := l.State()
	if st.Sheds != 1 || st.Queued != 1 || !st.Shedding {
		t.Errorf("state = %+v, want 1 shed, 1 queued, shedding", st)
	}
}

func TestLedgerOversizedAdmittedAlone(t *testing.T) {
	l := NewLedger(ledgerCfg(t, 100))
	// A request larger than the whole limit must still be served when the
	// ledger is empty — shedding it forever would deadlock that segment.
	if d := l.Admit(1000); d == Shed {
		t.Fatal("oversized request shed on an empty ledger")
	}
	// But with anything resident, it sheds like the rest.
	if d := l.Admit(1000); d != Shed {
		t.Fatalf("second oversized = %v, want shed", d)
	}
	l.Release(1000)
	if got := l.Used(); got != 0 {
		t.Fatalf("Used() = %d after release, want 0", got)
	}
}

func TestLedgerRecoveryGrantsCreditsOnce(t *testing.T) {
	l := NewLedger(ledgerCfg(t, 100))
	if d := l.Admit(120); d != Queue {
		t.Fatalf("120 = %v, want queue", d)
	}
	if d := l.Admit(60); d != Shed {
		t.Fatalf("60 over limit = %v, want shed", d)
	}
	// Dropping back under budget after a shed episode recovers exactly once.
	if !l.Release(30) { // 120 -> 90 < 100
		t.Fatal("release under budget after shed did not report recovery")
	}
	if l.Release(30) {
		t.Fatal("second release reported recovery again (must latch)")
	}
	st := l.State()
	if st.Credits != 1 || st.Shedding {
		t.Errorf("state = %+v, want 1 credit and shedding cleared", st)
	}
	// A fresh shed episode re-arms recovery.
	l.Admit(200) // 60 resident + 200 > 150: shed
	if st := l.State(); !st.Shedding {
		t.Fatalf("state = %+v, want shedding after new overload", st)
	}
	if !l.Release(60) { // back to 0 < 100
		t.Fatal("recovery did not re-arm after a new shed episode")
	}
}

// TestLedgerConcurrentBalance hammers Admit/Release from many goroutines
// and checks the balance nets to zero — the CAS loop loses no updates.
// The race detector makes this a memory-model check too.
func TestLedgerConcurrentBalance(t *testing.T) {
	l := NewLedger(ledgerCfg(t, 1<<20))
	const (
		workers = 8
		rounds  = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if l.Admit(n) != Shed {
					l.Release(n)
				}
			}
		}(int64(100 + w))
	}
	wg.Wait()
	if got := l.Used(); got != 0 {
		t.Fatalf("Used() = %d after balanced admit/release, want 0", got)
	}
}
