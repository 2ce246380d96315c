package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package directory.
type Package struct {
	// Name is the package clause name.
	Name string
	// Dir is the absolute directory path.
	Dir string
	// Rel is the module-root-relative path ("internal/core"), or the
	// absolute path when the directory lies outside the module.
	Rel string
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files are the non-test source files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package (possibly incomplete if
	// TypeErrors is non-empty).
	Types *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
	// TypeErrors collects type-check errors; checks still run but may be
	// unreliable when this is non-empty.
	TypeErrors []error

	// loader points back at the Loader that produced this package, so
	// interprocedural analyses (summaries, lockorder) can resolve callees
	// declared in other packages. Nil for hand-built test packages.
	loader *Loader
}

// Loader parses and type-checks package directories. Our own module's
// import paths resolve directly against the module root; standard-library
// imports resolve through the stdlib source importer. Both are memoized,
// so a whole-repo scan type-checks each dependency once.
type Loader struct {
	Fset   *token.FileSet
	Root   string // module root (directory containing go.mod)
	Module string // module path from go.mod

	std      types.Importer
	pkgs     map[string]*Package   // keyed by cleaned absolute dir
	testPkgs map[string][]*Package // LoadTests results, same key
	sum      *summarizer           // shared interprocedural summaries
}

// NewLoader creates a loader rooted at the module containing dir (found by
// walking up to the nearest go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:     fset,
		Root:     root,
		Module:   mod,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     make(map[string]*Package),
		testPkgs: make(map[string][]*Package),
	}, nil
}

// modulePath extracts the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load parses and type-checks the package in dir (memoized).
func (l *Loader) Load(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	abs = filepath.Clean(abs)
	if pkg, ok := l.pkgs[abs]; ok {
		return pkg, nil
	}

	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") || !buildsHere(abs, n) {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no non-test Go files in %s", abs)
	}
	sort.Strings(names)

	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(abs, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	rel := abs
	if r, err := filepath.Rel(l.Root, abs); err == nil && !strings.HasPrefix(r, "..") {
		rel = filepath.ToSlash(r)
	}
	pkg := &Package{
		Name:  files[0].Name.Name,
		Dir:   abs,
		Rel:   rel,
		Fset:  l.Fset,
		Files: files,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
		loader: l,
	}
	// Memoize before type-checking: import cycles would otherwise recurse
	// forever (valid Go has none, but a broken tree should fail cleanly).
	l.pkgs[abs] = pkg

	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			return l.importPath(path)
		}),
		Error: func(err error) {
			pkg.TypeErrors = append(pkg.TypeErrors, err)
		},
	}
	tpkg, _ := conf.Check(l.importPathFor(rel), l.Fset, files, pkg.Info)
	pkg.Types = tpkg
	return pkg, nil
}

// buildsHere reports whether the go tool would compile dir/name in a
// default build: files fenced off by a //go:build line or a GOOS/GOARCH
// suffix (a race-only constant and its twin, say) must not be type-checked
// together. An unreadable file is left for the parser to report.
func buildsHere(dir, name string) bool {
	ok, err := build.Default.MatchFile(dir, name)
	return ok || err != nil
}

// LoadTests parses and type-checks the test code of the package in dir
// (memoized) and returns up to two additional units: the package merged
// with its in-package _test.go files, and the external `<name>_test`
// package as its own unit. Directories with no test files return nil.
// These units are never registered as import targets — importing a
// package always resolves to its non-test half via Load — so test-only
// declarations cannot leak into dependents' type-checking.
func (l *Loader) LoadTests(dir string) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	abs = filepath.Clean(abs)
	if pkgs, ok := l.testPkgs[abs]; ok {
		return pkgs, nil
	}

	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, err
	}
	var baseNames, testNames []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || !buildsHere(abs, n) {
			continue
		}
		if strings.HasSuffix(n, "_test.go") {
			testNames = append(testNames, n)
		} else {
			baseNames = append(baseNames, n)
		}
	}
	if len(testNames) == 0 {
		l.testPkgs[abs] = nil
		return nil, nil
	}
	sort.Strings(baseNames)
	sort.Strings(testNames)

	parse := func(names []string) ([]*ast.File, error) {
		var files []*ast.File
		for _, n := range names {
			f, err := parser.ParseFile(l.Fset, filepath.Join(abs, n), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		return files, nil
	}
	testFiles, err := parse(testNames)
	if err != nil {
		return nil, err
	}
	var inPkg, external []*ast.File
	for _, f := range testFiles {
		if strings.HasSuffix(f.Name.Name, "_test") {
			external = append(external, f)
		} else {
			inPkg = append(inPkg, f)
		}
	}

	rel := abs
	if r, err := filepath.Rel(l.Root, abs); err == nil && !strings.HasPrefix(r, "..") {
		rel = filepath.ToSlash(r)
	}
	check := func(name string, files []*ast.File) *Package {
		path := l.importPathFor(rel)
		if strings.HasSuffix(name, "_test") {
			// The external test package imports the base package; giving it
			// the base's own path would read as a self-import.
			path += "_test"
		}
		pkg := &Package{
			Name:  name,
			Dir:   abs,
			Rel:   rel,
			Fset:  l.Fset,
			Files: files,
			Info: &types.Info{
				Types:      make(map[ast.Expr]types.TypeAndValue),
				Defs:       make(map[*ast.Ident]types.Object),
				Uses:       make(map[*ast.Ident]types.Object),
				Selections: make(map[*ast.SelectorExpr]*types.Selection),
			},
			loader: l,
		}
		conf := types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				return l.importPath(path)
			}),
			Error: func(err error) {
				pkg.TypeErrors = append(pkg.TypeErrors, err)
			},
		}
		tpkg, _ := conf.Check(path, l.Fset, files, pkg.Info)
		pkg.Types = tpkg
		return pkg
	}

	var pkgs []*Package
	if len(inPkg) > 0 {
		// The in-package unit re-parses the base files rather than reusing
		// Load's ASTs: the merged unit type-checks with its own Info tables,
		// and sharing ASTs across two type-checks would interleave them.
		baseFiles, err := parse(baseNames)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, check(inPkg[0].Name.Name, append(baseFiles, inPkg...)))
	}
	if len(external) > 0 {
		pkgs = append(pkgs, check(external[0].Name.Name, external))
	}
	l.testPkgs[abs] = pkgs
	return pkgs, nil
}

// importPathFor derives the import path recorded for a checked package.
func (l *Loader) importPathFor(rel string) string {
	if filepath.IsAbs(rel) {
		return rel // outside the module (e.g. test fixtures)
	}
	if rel == "." {
		return l.Module
	}
	return l.Module + "/" + rel
}

// importPath resolves one import: module-local paths load from source
// under the module root, everything else goes to the stdlib importer.
func (l *Loader) importPath(path string) (*types.Package, error) {
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		pkg, err := l.Load(filepath.Join(l.Root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: dependency %s failed to type-check", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
