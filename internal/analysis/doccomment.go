package analysis

import (
	"fmt"
	"strings"
)

// DocCommentCheck requires every package to carry a package doc comment in
// the godoc convention: starting "Package <name>" for libraries, "Command
// <name>" for main packages. The repo's documentation pass (ARCHITECTURE,
// OBSERVABILITY) leans on package docs as the per-package entry points, so
// a missing or free-form doc is a docs regression, not a style nit.
type DocCommentCheck struct{}

// Name implements Check.
func (*DocCommentCheck) Name() string { return "doccomment" }

// Run implements Check.
func (c *DocCommentCheck) Run(pkg *Package) []Finding {
	want := "Package " + pkg.Name
	if pkg.Name == "main" {
		want = "Command "
	}
	var out []Finding
	found := false
	for _, file := range pkg.Files {
		if file.Doc == nil {
			continue
		}
		found = true
		if !strings.HasPrefix(file.Doc.Text(), want) {
			out = append(out, Finding{
				Pos:   position(pkg, file.Name.Pos()),
				Check: "doccomment",
				Message: fmt.Sprintf("package doc comment should start %q, not %q",
					want, firstLine(file.Doc.Text())),
			})
		}
	}
	if !found {
		out = append(out, Finding{
			Pos:   position(pkg, pkg.Files[0].Name.Pos()),
			Check: "doccomment",
			Message: fmt.Sprintf("package %s has no package doc comment; add one starting %q",
				pkg.Name, want),
		})
	}
	return out
}

// firstLine truncates a doc text to its first line for the finding message.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	const max = 60
	if len(s) > max {
		s = s[:max] + "..."
	}
	return s
}
