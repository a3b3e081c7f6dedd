// Command reprolint runs the repository's seven static analyzers
// (internal/analysis: determinism, MPI hygiene, metrics stability,
// error handling and lock hygiene) over module packages.
//
// Standalone:
//
//	reprolint ./...                 # whole module (the make lint gate)
//	reprolint ./internal/mpi        # one package
//	reprolint -only detwall ./...   # subset of analyzers
//	reprolint -list                 # describe the suite
//
// It also speaks enough of the `go vet -vettool` unitchecker protocol to
// run under the standard driver:
//
//	go vet -vettool=$(pwd)/reprolint ./...
//
// Every analyzer judges one package on its own, so the tool reads no
// dependency facts and writes none: go vet hands it one package per
// invocation and it reports that package's findings.
//
// Exit status: 0 clean, 1 findings, 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// go vet probes -V=full before anything else; answer before flag
	// parsing so the probe never trips over our own flags.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		fmt.Fprintln(stdout, "reprolint version repro-"+analysis.ModulePath)
		return 0
	}

	fs := flag.NewFlagSet("reprolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "describe the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer subset (default: all)")
	printFlags := fs.Bool("flags", false, "print flag metadata (vettool protocol)")
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON (unitchecker shape under vet, a flat array standalone)")
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 log (standalone mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printFlags {
		fmt.Fprintln(stdout, "[]")
		return 0
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := analysis.ByName(*only)
	if err != nil {
		fmt.Fprintln(stderr, "reprolint:", err)
		return 2
	}

	// A single non-flag argument ending in .cfg is the unitchecker
	// protocol: go vet hands us one package per invocation.
	if fs.NArg() == 1 && strings.HasSuffix(fs.Arg(0), ".cfg") {
		return runVettool(fs.Arg(0), analyzers, *jsonOut, stdout, stderr)
	}
	mode := modePlain
	switch {
	case *sarifOut:
		mode = modeSARIF
	case *jsonOut:
		mode = modeJSON
	}
	return runStandalone(fs.Args(), analyzers, mode, stdout, stderr)
}

type outputMode int

const (
	modePlain outputMode = iota
	modeJSON
	modeSARIF
)

func runStandalone(patterns []string, analyzers []*analysis.Analyzer, mode outputMode, stdout, stderr io.Writer) int {
	root, modPath, err := findModule(".")
	if err != nil {
		fmt.Fprintln(stderr, "reprolint:", err)
		return 2
	}
	loader := analysis.NewModuleLoader(root, modPath)
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var pkgs []*analysis.Package
	for _, pat := range patterns {
		got, err := resolvePattern(loader, root, modPath, pat)
		if err != nil {
			fmt.Fprintln(stderr, "reprolint:", err)
			return 2
		}
		pkgs = append(pkgs, got...)
	}
	diags, err := analysis.Run(analyzers, pkgs)
	if err != nil {
		fmt.Fprintln(stderr, "reprolint:", err)
		return 2
	}
	relTo := func(name string) string {
		if r, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(r, "..") {
			return filepath.ToSlash(r)
		}
		return filepath.ToSlash(name)
	}
	switch mode {
	case modeJSON:
		type jsonDiag struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
		}
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{
				File: relTo(d.Pos.Filename), Line: d.Pos.Line, Column: d.Pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "reprolint:", err)
			return 2
		}
	case modeSARIF:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(sarifLog(analyzers, diags, relTo)); err != nil {
			fmt.Fprintln(stderr, "reprolint:", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", relTo(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "reprolint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// findModule walks up from dir to the enclosing go.mod.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("no go.mod found above %s", abs)
		}
	}
}

// resolvePattern loads "./...", an import path, or a ./relative package
// directory.
func resolvePattern(loader *analysis.Loader, root, modPath, pat string) ([]*analysis.Package, error) {
	switch {
	case pat == "./..." || pat == modPath+"/...":
		return loader.LoadAll()
	case strings.HasPrefix(pat, "./"):
		rel := filepath.ToSlash(filepath.Clean(strings.TrimPrefix(pat, "./")))
		path := modPath
		if rel != "." {
			path += "/" + rel
		}
		pkg, err := loader.Load(path)
		if err != nil {
			return nil, err
		}
		return []*analysis.Package{pkg}, nil
	default:
		pkg, err := loader.Load(pat)
		if err != nil {
			return nil, err
		}
		return []*analysis.Package{pkg}, nil
	}
}

// --- go vet -vettool unitchecker protocol -------------------------------

// vetConfig is the subset of the unitchecker .cfg schema reprolint needs.
type vetConfig struct {
	ID          string
	Compiler    string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
}

// runVettool analyzes the single package described by a unitchecker cfg
// file: sources are parsed from cfg.GoFiles and imports resolve through
// the export data the go command already compiled (PackageFile), so the
// vet path needs no network and no re-typechecking of dependencies.
func runVettool(cfgPath string, analyzers []*analysis.Analyzer, jsonOut bool, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(stderr, "reprolint:", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(stderr, "reprolint: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		// Test files are out of scope, matching the standalone loader:
		// the invariants guard shipped artefact paths, and tests routinely
		// read wall clocks for timeouts. Skipping them here also skips the
		// [pkg.test] variants vet schedules alongside each package.
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(stderr, "reprolint:", err)
			return 2
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return 0
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "source"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tcfg := types.Config{Importer: imp}
	tpkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		fmt.Fprintf(stderr, "reprolint: type-checking %s: %v\n", cfg.ImportPath, err)
		return 2
	}
	pkg := &analysis.Package{
		Path: cfg.ImportPath, Dir: cfg.Dir,
		Fset: fset, Files: files, Types: tpkg, Info: info,
	}
	diags, err := analysis.Run(analyzers, []*analysis.Package{pkg})
	if err != nil {
		fmt.Fprintln(stderr, "reprolint:", err)
		return 2
	}
	if jsonOut {
		// The unitchecker JSON shape, parsed by the go vet driver:
		// {"pkg": {"analyzer": [{"posn": ..., "message": ...}]}}.
		type jsonDiag struct {
			Posn    string `json:"posn"`
			Message string `json:"message"`
		}
		byAnalyzer := map[string][]jsonDiag{}
		for _, d := range diags {
			byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], jsonDiag{
				Posn:    fmt.Sprintf("%s:%d:%d", d.Pos.Filename, d.Pos.Line, d.Pos.Column),
				Message: d.Message,
			})
		}
		out := map[string]map[string][]jsonDiag{cfg.ID: byAnalyzer}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "reprolint:", err)
			return 2
		}
		return 0
	}
	// Plain mode: silent when clean, diagnostics to stderr otherwise
	// (mirrors unitchecker, which go vet invokes per package).
	for _, d := range diags {
		fmt.Fprintf(stderr, "%s:%d:%d: %s: %s\n", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
