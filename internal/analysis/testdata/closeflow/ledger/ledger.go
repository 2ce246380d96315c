// Package ledger is the closeflow golden fixture for flow-ledger charges.
// Each `// want "substr"` comment marks a line where a finding must
// land; functions without want comments must analyse clean.
package ledger

import (
	"errors"

	"repro/internal/flow"
)

var errShed = errors.New("shed")

// pending records an admitted charge for a later asymmetric drain (the
// supplier's resolved.charge convention).
type pending struct {
	charge int64
}

// ---- clean cases ----

// cleanSymmetric is the canonical supplier shape: Shed charges nothing,
// every admitted path drains.
func cleanSymmetric(l *flow.Ledger, n int64, send func() error) error {
	if l.Admit(n) == flow.Shed {
		return errShed
	}
	err := send()
	l.Release(n)
	return err
}

// cleanDecisionVar binds the decision before comparing it.
func cleanDecisionVar(l *flow.Ledger, n int64) bool {
	d := l.Admit(n)
	if d == flow.Shed {
		return false
	}
	l.Release(n)
	return true
}

// cleanNeqForm drains inside the admitted branch.
func cleanNeqForm(l *flow.Ledger, n int64) {
	if l.Admit(n) != flow.Shed {
		l.Release(n)
	}
}

// cleanChargeStore records the charge into a *charge* field for a later
// drain elsewhere.
func cleanChargeStore(l *flow.Ledger, n int64, p *pending) bool {
	if l.Admit(n) == flow.Shed {
		return false
	}
	p.charge = n
	return true
}

// finish drains a ledger; callers inherit the drain through its summary.
func finish(l *flow.Ledger, n int64) {
	l.Release(n)
}

func cleanHelperDrain(l *flow.Ledger, n int64) {
	if l.Admit(n) == flow.Shed {
		return
	}
	finish(l, n)
}

// ---- violating cases ----

func leakOnErrorPath(l *flow.Ledger, n int64, send func() error) error {
	if l.Admit(n) == flow.Shed { // want "ledger charge from Admit may not be drained"
		return errShed
	}
	if err := send(); err != nil {
		return err
	}
	l.Release(n)
	return nil
}

// leakBelowEarlyReturn admits after a prior branch: charges acquired
// past an empty first frontier must still reach the exit.
func leakBelowEarlyReturn(l *flow.Ledger, n int64, ok bool) error {
	if !ok {
		return errShed
	}
	if l.Admit(n) == flow.Shed { // want "ledger charge from Admit may not be drained"
		return errShed
	}
	return nil
}

// cleanBelowEarlyReturn is the same shape with the drain in place.
func cleanBelowEarlyReturn(l *flow.Ledger, n int64, ok bool) error {
	if !ok {
		return errShed
	}
	if l.Admit(n) == flow.Shed {
		return errShed
	}
	l.Release(n)
	return nil
}

func leakIgnoredDecision(l *flow.Ledger, n int64) {
	l.Admit(n) // want "ledger charge from Admit may not be drained"
}

func leakOneBranch(l *flow.Ledger, n int64, fast bool) {
	d := l.Admit(n) // want "ledger charge from Admit may not be drained"
	if d == flow.Shed {
		return
	}
	if fast {
		l.Release(n)
	}
}
