package analysis

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// GoPackageDirs walks the named subtrees of root (or root itself when none
// are given) and returns every directory directly containing a non-test Go
// file. testdata, hidden, and underscore-prefixed directories and nested
// modules (a directory with its own go.mod) are skipped, matching the go
// tool's convention for "./...". The result is sorted and deduplicated.
func GoPackageDirs(root string, subtrees ...string) ([]string, error) {
	bases := []string{root}
	if len(subtrees) > 0 {
		bases = bases[:0]
		for _, s := range subtrees {
			bases = append(bases, filepath.Join(root, filepath.FromSlash(s)))
		}
	}
	seen := make(map[string]bool)
	var dirs []string
	for _, base := range bases {
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base {
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			if HasGoFiles(path) && !seen[path] {
				seen[path] = true
				dirs = append(dirs, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// HasGoFiles reports whether dir directly contains a non-test Go file.
func HasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}
