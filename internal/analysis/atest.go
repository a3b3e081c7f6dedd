package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// TB is the subset of testing.TB the fixture runner needs; declared here
// so non-test code never imports the testing package.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// wantRe extracts expectations of the form
//
//	// want "regexp" "another"
//
// from fixture sources, mirroring x/tools' analysistest convention.
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// RunFixture type-checks the fixture package at importPath under srcRoot
// (a GOPATH-shaped tree: srcRoot/<importPath>/*.go), runs the analyzers
// over it and its module-local fixture dependencies, and compares the diagnostics against the `// want "re"` comments in every
// loaded fixture file: each diagnostic must be expected on its line, and
// each expectation must be matched exactly once.
func RunFixture(t TB, srcRoot, importPath string, analyzers ...*Analyzer) {
	t.Helper()
	l := NewFixtureLoader(srcRoot)
	if _, err := l.Load(importPath); err != nil {
		t.Fatalf("loading fixture %s: %v", importPath, err)
	}
	pkgs := l.Loaded()
	diags, err := Run(analyzers, pkgs)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", importPath, err)
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	var files []*ast.File
	var fset *token.FileSet
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
		fset = pkg.Fset
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				res, perr := parseWants(m[1])
				if perr != nil {
					t.Fatalf("%s:%d: %v", pos.Filename, pos.Line, perr)
				}
				k := key{pos.Filename, pos.Line}
				wants[k] = append(wants[k], res...)
			}
		}
	}

	matched := map[key][]bool{}
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		res := wants[k]
		if matched[k] == nil {
			matched[k] = make([]bool, len(res))
		}
		ok := false
		for i, re := range res {
			if !matched[k][i] && re.MatchString(d.Message) {
				matched[k][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic: %s", posString(d.Pos), d.Message)
		}
	}
	keys := make([]key, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for i, re := range wants[k] {
			if matched[k] == nil || !matched[k][i] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}

func posString(p token.Position) string {
	return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column)
}

// parseWants splits `"re1" "re2"` into compiled regexps.
func parseWants(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("want expectation must be a quoted regexp, got %q", s)
		}
		lit, rest, err := cutQuoted(s)
		if err != nil {
			return nil, err
		}
		re, err := regexp.Compile(lit)
		if err != nil {
			return nil, fmt.Errorf("bad want regexp %q: %v", lit, err)
		}
		out = append(out, re)
		s = strings.TrimSpace(rest)
	}
	return out, nil
}

// cutQuoted splits off one leading Go string literal.
func cutQuoted(s string) (lit, rest string, err error) {
	if s[0] == '`' {
		end := strings.IndexByte(s[1:], '`')
		if end < 0 {
			return "", "", fmt.Errorf("unterminated raw string in want: %q", s)
		}
		return s[1 : 1+end], s[end+2:], nil
	}
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == '"' {
			unq, err := strconv.Unquote(s[:i+1])
			if err != nil {
				return "", "", fmt.Errorf("bad want literal %q: %v", s[:i+1], err)
			}
			return unq, s[i+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated string in want: %q", s)
}
