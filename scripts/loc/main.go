// Command loc counts the repository's non-test Go lines per directory and
// in total: every line (what wc -l reports) and code lines, which are
// neither blank nor comment-only. A line inside a multi-line raw string is
// code. _test.go files are skipped; testdata fixtures are counted, under
// their own directory.
//
//	go run ./scripts/loc                  # internal/, cmd/ and examples/
//	go run ./scripts/loc internal/core    # any other roots
//	make loc
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// count holds one tally of lines.
type count struct{ lines, code int }

func (c *count) add(o count) { c.lines += o.lines; c.code += o.code }

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: loc [root ...]   (default: internal cmd examples)")
	}
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"internal", "cmd", "examples"}
	}
	byDir := map[string]*count{}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			if byDir[dir] == nil {
				byDir[dir] = &count{}
			}
			byDir[dir].add(countFile(src))
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "loc:", err)
			os.Exit(1)
		}
	}

	dirs := make([]string, 0, len(byDir))
	for d := range byDir {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	fmt.Printf("%7s %7s  %s\n", "lines", "code", "directory")
	var total count
	perRoot := map[string]*count{}
	for _, d := range dirs {
		c := byDir[d]
		fmt.Printf("%7d %7d  %s\n", c.lines, c.code, d)
		total.add(*c)
		for _, r := range roots {
			r = filepath.ToSlash(filepath.Clean(r))
			if d == r || strings.HasPrefix(d, r+"/") {
				if perRoot[r] == nil {
					perRoot[r] = &count{}
				}
				perRoot[r].add(*c)
				break
			}
		}
	}
	fmt.Println()
	for _, r := range roots {
		if c := perRoot[filepath.ToSlash(filepath.Clean(r))]; c != nil {
			fmt.Printf("%7d %7d  %s/ total\n", c.lines, c.code, filepath.ToSlash(filepath.Clean(r)))
		}
	}
	fmt.Printf("%7d %7d  total\n", total.lines, total.code)
}

// countFile counts src's lines and its code lines: those holding a token
// other than a comment. The scanner's automatic semicolons are not tokens
// anyone wrote, so they do not make a line code.
func countFile(src []byte) count {
	fset := token.NewFileSet()
	file := fset.AddFile("", fset.Base(), len(src))
	var s scanner.Scanner
	s.Init(file, src, nil, 0)
	code := map[int]bool{}
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			break
		}
		if tok == token.SEMICOLON && lit == "\n" {
			continue
		}
		first := file.Line(pos)
		for l := first; l <= first+strings.Count(lit, "\n"); l++ {
			code[l] = true
		}
	}
	return count{lines: bytes.Count(src, []byte("\n")), code: len(code)}
}
