package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// One shared loader across all golden tests: the stdlib source importer is
// the expensive part, and memoization makes subsequent fixtures cheap.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func fixturePkg(t *testing.T, name string) *Package {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	pkg, err := loader.Load(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("fixture %s has type errors: %v", name, pkg.TypeErrors)
	}
	return pkg
}

var wantRE = regexp.MustCompile(`"([^"]*)"`)

// matchFindings compares findings against the fixture's `// want "substr"`
// comments 1:1: every finding must land on a line with an unconsumed want
// whose substring it contains, and every want must be consumed.
func matchFindings(t *testing.T, pkg *Package, findings []Finding) {
	t.Helper()
	type want struct {
		substr  string
		matched bool
	}
	wants := make(map[int][]*want) // keyed by line
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				if !strings.HasPrefix(c.Text, "// want ") {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					wants[line] = append(wants[line], &want{substr: m[1]})
				}
			}
		}
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants[f.Pos.Line] {
			if !w.matched && strings.Contains(f.Message, w.substr) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for line, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("line %d: expected a finding containing %q, got none", line, w.substr)
			}
		}
	}
}

func TestLockCheckGolden(t *testing.T) {
	pkg := fixturePkg(t, "lock")
	matchFindings(t, pkg, (&LockCheck{}).Run(pkg))
}

func TestGoroutineCheckGolden(t *testing.T) {
	pkg := fixturePkg(t, "goroutine")
	matchFindings(t, pkg, (&GoroutineCheck{}).Run(pkg))
}

func TestErrCheckGolden(t *testing.T) {
	pkg := fixturePkg(t, "errcheck")
	matchFindings(t, pkg, (&ErrCheck{}).Run(pkg))
}

func TestTestGoroutineCheckGolden(t *testing.T) {
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	pkgs, err := loader.LoadTests(filepath.Join("testdata", "testgoroutine"))
	if err != nil {
		t.Fatalf("LoadTests: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("LoadTests returned %d units, want 2 (in-package merged + external _test)", len(pkgs))
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("test unit %s has type errors: %v", pkg.Name, pkg.TypeErrors)
		}
		matchFindings(t, pkg, (&TestGoroutineCheck{}).Run(pkg))
	}
}

func TestLoadTestsNoTestFiles(t *testing.T) {
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	pkgs, err := loader.LoadTests(filepath.Join("testdata", "lock"))
	if err != nil {
		t.Fatalf("LoadTests: %v", err)
	}
	if len(pkgs) != 0 {
		t.Fatalf("LoadTests on a test-less dir returned %d units, want 0", len(pkgs))
	}
}

func TestDocCommentCheckGolden(t *testing.T) {
	for _, name := range []string{"doccomment/missing", "doccomment/badprefix", "doccomment/cmdmain"} {
		pkg := fixturePkg(t, name)
		matchFindings(t, pkg, (&DocCommentCheck{}).Run(pkg))
	}
}

// TestSuppressions runs errcheck raw over the suppress fixture, then checks
// that ApplySuppressions silences exactly the directive-covered findings
// and reports the reason-less directive as malformed.
func TestSuppressions(t *testing.T) {
	pkg := fixturePkg(t, "suppress")
	raw := (&ErrCheck{}).Run(pkg)
	if len(raw) != 5 {
		t.Fatalf("raw errcheck findings = %d, want 5:\n%v", len(raw), raw)
	}
	kept, malformed := ApplySuppressions(pkg, raw)
	matchFindings(t, pkg, kept)
	if len(malformed) != 1 {
		t.Fatalf("malformed directives = %d, want 1: %v", len(malformed), malformed)
	}
	if !strings.Contains(malformed[0].Message, "malformed //jbsvet:ignore") {
		t.Errorf("malformed finding message = %q", malformed[0].Message)
	}
	if malformed[0].Check != "suppress" {
		t.Errorf("malformed finding check = %q, want %q", malformed[0].Check, "suppress")
	}
}

func TestInScope(t *testing.T) {
	cases := []struct {
		rel      string
		patterns []string
		want     bool
	}{
		{"internal/core", nil, true},
		{"internal/core", []string{"internal/core"}, true},
		{"internal/core/sub", []string{"internal/core"}, true},
		{"internal/coreutils", []string{"internal/core"}, false},
		{"internal/shuffle", []string{"internal/core", "internal/shuffle"}, true},
	}
	for _, c := range cases {
		if got := inScope(c.rel, c.patterns); got != c.want {
			t.Errorf("inScope(%q, %v) = %v, want %v", c.rel, c.patterns, got, c.want)
		}
	}
}

// TestRepoIsClean is the in-test CI gate: the full Runner over the repo's
// own internal and cmd trees must report nothing, mirroring
// `go run ./cmd/jbsvet ./...`.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo scan in -short mode")
	}
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	dirs, err := GoPackageDirs(loader.Root, "internal", "cmd")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Loader: loader, Checks: AllChecks(), Scopes: DefaultScopes()}
	findings, err := r.RunDirs(dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("repo not jbsvet-clean: %s", f)
	}
}

// TestGoPackageDirsSkipsNestedModules pins the "./..." convention: a
// directory with its own go.mod is another module and is not walked into.
func TestGoPackageDirsSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for _, f := range []string{"go.mod", "a/a.go", "nested/go.mod", "nested/n.go", "nested/deep/d.go"} {
		path := filepath.Join(root, filepath.FromSlash(f))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("package x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := GoPackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{filepath.Join(root, "a")}; !slices.Equal(dirs, want) {
		t.Fatalf("GoPackageDirs = %v, want %v", dirs, want)
	}
}
