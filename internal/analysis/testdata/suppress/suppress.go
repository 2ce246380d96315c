// Package supfix is a fixture for //jbsvet:ignore handling, exercised
// through the errcheck check. Lines with a `// want` survive suppression;
// the rest are silenced by well-formed directives.
package supfix

type conn struct{}

func (conn) Close() error { return nil }

func suppressedTrailing(c conn) {
	c.Close() //jbsvet:ignore errcheck a fixture close with nothing to report
}

func suppressedAbove(c conn) {
	//jbsvet:ignore errcheck documented best-effort close
	c.Close()
}

func notSuppressed(c conn) {
	c.Close() // want "result of c.Close"
}

func wrongCheck(c conn) {
	//jbsvet:ignore lockhygiene a directive for another check must not silence errcheck
	c.Close() // want "result of c.Close"
}

func missingReason(c conn) {
	//jbsvet:ignore errcheck
	c.Close() // want "result of c.Close"
}
