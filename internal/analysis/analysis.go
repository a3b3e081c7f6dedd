// Package analysis is the repository's static-analysis plane: a small,
// stdlib-only reimplementation of the golang.org/x/tools/go/analysis
// analyzer shape plus the seven reprolint analyzers that prove the
// determinism, MPI-hygiene, metrics-stability, error-handling and
// lock-hygiene invariants the golden tests otherwise only catch after a
// violation ships. Hot-path allocation freedom is not a static check:
// it is measured by testing.AllocsPerRun tests next to the hot code
// (internal/mpi/alloc_test.go, internal/pdes/queue_test.go,
// internal/facility/alloc_test.go).
//
// The build environment is hermetic (no module proxy), so the framework
// deliberately depends on nothing outside the standard library: packages
// are parsed with go/parser, type-checked with go/types against the
// toolchain's own export data, and analyzers receive a Pass mirroring
// x/tools' analysis.Pass. If golang.org/x/tools ever becomes available,
// each Analyzer converts mechanically (same Name/Doc/Run shape).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so the suite can migrate to the
// real driver unchanged when the dependency is available.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in suppression
	// comments (//lint:allow reprolint/<Name> <reason>).
	Name string
	// Doc is the one-paragraph help text shown by cmd/reprolint -list.
	Doc string
	// Run inspects one package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one finding, positioned for editor navigation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when untyped.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// InModule reports whether path names a package of this module. The
// analyzers encode repository invariants, so Run confines them to module
// packages: under go vet the unitchecker protocol hands the tool every
// package in the dependency graph — including the standard library, where
// e.g. math/rand legitimately seeds itself from runtime entropy.
func InModule(path string) bool {
	return path == ModulePath || strings.HasPrefix(path, ModulePath+"/")
}

// Run applies every analyzer to every in-module package, drops findings
// covered by a //lint:allow suppression, and returns the survivors sorted
// by position. Malformed suppressions (missing reason) are themselves
// reported so a silencing comment always carries its justification.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if !InModule(pkg.Path) {
			continue
		}
		sup, bad := collectSuppressions(pkg)
		diags = append(diags, bad...)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			before := len(diags)
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			diags = filterSuppressed(diags, before, sup)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// suppression marks "analyzer X is allowed at file:line".
type suppression struct {
	file     string
	line     int
	analyzer string
}

// AllowPrefix is the comment marker that silences one finding:
//
//	//lint:allow reprolint/<analyzer> <reason>
//
// placed on the offending line or the line immediately above it. The
// reason is mandatory; it is what a reviewer audits instead of the code.
const AllowPrefix = "//lint:allow "

// collectSuppressions scans a package's comments for allow markers. A
// marker suppresses findings on every line from its own through the end
// of its comment group plus one — so it works on the offending line, on
// the line immediately above (the common placement), and anywhere
// inside a multi-line comment block sitting on top of the offending
// statement (the marker may be followed by further explanation lines
// before a multi-line range statement, say, without losing its effect).
func collectSuppressions(pkg *Package) (map[suppression]bool, []Diagnostic) {
	sup := map[suppression]bool{}
	var bad []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			groupEnd := pkg.Fset.Position(cg.End()).Line
			for _, c := range cg.List {
				text := c.Text
				if !strings.HasPrefix(text, AllowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, AllowPrefix))
				name, reason, _ := strings.Cut(rest, " ")
				pos := pkg.Fset.Position(c.Pos())
				if !strings.HasPrefix(name, "reprolint/") || strings.TrimSpace(reason) == "" {
					bad = append(bad, Diagnostic{
						Analyzer: "suppression",
						Pos:      pos,
						Message: "malformed allow comment: want " +
							"//lint:allow reprolint/<analyzer> <reason>",
					})
					continue
				}
				an := strings.TrimPrefix(name, "reprolint/")
				for line := pos.Line; line <= groupEnd+1; line++ {
					sup[suppression{file: pos.Filename, line: line, analyzer: an}] = true
				}
			}
		}
	}
	return sup, bad
}

// filterSuppressed removes diagnostics appended after index `from` whose
// position carries a matching allow marker.
func filterSuppressed(diags []Diagnostic, from int, sup map[suppression]bool) []Diagnostic {
	if len(sup) == 0 {
		return diags
	}
	kept := diags[:from]
	for _, d := range diags[from:] {
		key := suppression{file: d.Pos.Filename, line: d.Pos.Line, analyzer: d.Analyzer}
		if sup[key] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// All returns the full reprolint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Detwall,
		Detrand,
		Detmaprange,
		Mpireq,
		Obsstable,
		Errcheck,
		Lockhyg,
	}
}

// ByName resolves a comma-separated analyzer list, erroring on unknown
// names so typos fail loudly rather than silently checking nothing.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			known := make([]string, 0, len(byName))
			for k := range byName {
				known = append(known, k)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown analyzer %q (known: %s)", n, strings.Join(known, ", "))
		}
		out = append(out, a)
	}
	return out, nil
}
