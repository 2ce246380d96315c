// Package history is the closeflow fixture for three leaks found by hand
// while the analyser stayed clean, rebuilt at minimal size from their
// pre-fix code. Each leak carries a `// want`; its fixed twin must
// analyse clean.
package history

import (
	"errors"
	"io"

	"repro/internal/dfs"
	"repro/internal/merge"
	"repro/internal/mof"
)

// ---- mapred/mapspill.go writeRun at d64dabb: a failed seal ----

func writeRun(data, index string, parts [][]mof.Record) error {
	w, err := mof.NewWriter(data, index, len(parts)) // want "*mof.Writer from NewWriter may not be released"
	if err != nil {
		return err
	}
	for p, recs := range parts {
		if err := w.BeginSegment(p); err != nil {
			return err
		}
		for _, rec := range recs {
			if err := w.Append(rec.Key, rec.Value); err != nil {
				return err
			}
		}
	}
	return w.Close()
}

func writeRunFixed(data, index string, parts [][]mof.Record) (err error) {
	w, err := mof.NewWriter(data, index, len(parts))
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			w.Abort()
		}
	}()
	for p, recs := range parts {
		if err := w.BeginSegment(p); err != nil {
			return err
		}
		for _, rec := range recs {
			if err := w.Append(rec.Key, rec.Value); err != nil {
				return err
			}
		}
	}
	return w.Close()
}

// ---- mapred/cluster.go runReduceTask at 0ae0948: a local closure ----
// borrows the output writer, so capturing it hands nothing over.

func runReduce(fs *dfs.Cluster, node string, reduce func(emit func(k, v []byte)) error) error {
	w, err := fs.Create("part-r-00000", node) // want "*dfs.FileWriter from Create may not be released"
	if err != nil {
		return err
	}
	var outErr error
	emit := func(k, v []byte) {
		if _, err := w.Write(append(k, v...)); err != nil && outErr == nil {
			outErr = err
		}
	}
	if err := reduce(emit); err != nil {
		return err
	}
	if outErr != nil {
		return outErr
	}
	return w.Close()
}

func runReduceFixed(fs *dfs.Cluster, node string, reduce func(emit func(k, v []byte)) error) error {
	w, err := fs.Create("part-r-00000", node)
	if err != nil {
		return err
	}
	defer w.Abort() // a no-op after Close
	var outErr error
	emit := func(k, v []byte) {
		if _, err := w.Write(append(k, v...)); err != nil && outErr == nil {
			outErr = err
		}
	}
	if err := reduce(emit); err != nil {
		return err
	}
	if outErr != nil {
		return outErr
	}
	return w.Close()
}

// ---- merge/merge.go NewIterator at 47dbc0c: the iterator takes its ----
// sources over, so a priming error must close them.

type iterator struct{ sources []merge.Source }

func (it *iterator) Close() error {
	var errs []error
	for _, s := range it.sources {
		errs = append(errs, s.Close())
	}
	return errors.Join(errs...)
}

func newIterator(sources []merge.Source) (*iterator, error) {
	it := &iterator{sources: sources} // want "*history.iterator literal may not be released"
	for _, s := range sources {
		if _, err := s.Next(); err != nil && err != io.EOF {
			return nil, err
		}
	}
	return it, nil
}

func newIteratorFixed(sources []merge.Source) (*iterator, error) {
	it := &iterator{sources: sources}
	for _, s := range sources {
		if _, err := s.Next(); err != nil && err != io.EOF {
			it.Close()
			return nil, err
		}
	}
	return it, nil
}

// ---- the rules those three needed ----

// conn lends the connection it caches; the caller must not close it.
//
//jbsvet:borrowed
func (c *cache) conn() io.ReadCloser { return c.rc }

type cache struct{ rc io.ReadCloser }

func useBorrowed(c *cache, buf []byte) (int, error) {
	return c.conn().Read(buf)
}

// closeOnSuccess consumes r on one path only, so the parameter is an
// obligation from entry and the other path leaks it.
func closeOnSuccess(r io.ReadCloser, ok bool) error { // want "parameter r may not be released"
	if !ok {
		return errors.New("not ok")
	}
	return r.Close()
}

// closeInClosure hands the value to a literal that releases it.
func closeInClosure(open func() (io.ReadCloser, error)) error {
	r, err := open()
	if err != nil {
		return err
	}
	done := func() { r.Close() }
	done()
	return nil
}
