// Package errfix is a golden-file fixture for the errcheck check.
package errfix

type closer struct{}

func (closer) Close() error                { return nil }
func (closer) Flush() error                { return nil }
func (closer) Write(p []byte) (int, error) { return len(p), nil }

// quiet's Close returns nothing, so there is no error to drop.
type quiet struct{}

func (quiet) Close() {}

func bad(c closer) {
	c.Close() // want "result of c.Close"
}

func good(c closer, q quiet, p []byte) error {
	_ = c.Close()
	q.Close()       // no error result: nothing to check
	defer c.Close() // deferred read-side close is accepted idiom
	c.Flush()       // only Close is checked
	c.Write(p)
	if err := c.Close(); err != nil {
		return err
	}
	return c.Close()
}
