package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("repro/internal/mpi")
	Dir   string // absolute directory the files were read from
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages without the go/packages driver:
// module-local import paths resolve to directories under the module root
// (or, for analyzer fixtures, under a testdata src root in the classic
// GOPATH layout), everything else is treated as standard library and
// imported from the toolchain's export data. Both paths work offline,
// which is the point — the lint gate must run in the same hermetic
// environment as the build.
type Loader struct {
	fset       *token.FileSet
	moduleRoot string // directory that owns modulePath ("" in fixture mode)
	modulePath string // module prefix claimed by moduleRoot
	srcRoot    string // fixture mode: root containing <importpath>/ dirs
	stdlib     types.Importer
	cache      map[string]*Package
	loading    map[string]bool // import-cycle guard
}

// NewModuleLoader loads packages of the module rooted at dir (the
// directory containing go.mod) whose module path is modulePath.
func NewModuleLoader(dir, modulePath string) *Loader {
	return newLoader(dir, modulePath, "")
}

// NewFixtureLoader loads analyzer fixtures from srcRoot, where the
// directory layout mirrors import paths (srcRoot/repro/internal/mpi/...).
// Imports not present under srcRoot fall through to the standard library.
func NewFixtureLoader(srcRoot string) *Loader {
	return newLoader("", "", srcRoot)
}

func newLoader(moduleRoot, modulePath, srcRoot string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		moduleRoot: moduleRoot,
		modulePath: modulePath,
		srcRoot:    srcRoot,
		stdlib:     importer.ForCompiler(fset, "gc", nil),
		cache:      map[string]*Package{},
		loading:    map[string]bool{},
	}
}

// Load returns the type-checked package for an import path, loading its
// module-local dependencies recursively.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("analysis: %s is not a module-local import path", path)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	cfg := types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			if _, local := l.dirFor(imp); local {
				p, err := l.Load(imp)
				if err != nil {
					return nil, err
				}
				return p.Types, nil
			}
			return l.stdlib.Import(imp)
		}),
	}
	tpkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.cache[path] = p
	return p, nil
}

// LoadAll loads every buildable package under the module root (skipping
// testdata, hidden directories and directories with only test files),
// returned in deterministic path order. Module mode only.
func (l *Loader) LoadAll() ([]*Package, error) {
	if l.moduleRoot == "" {
		return nil, fmt.Errorf("analysis: LoadAll requires a module loader")
	}
	var paths []string
	err := filepath.WalkDir(l.moduleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.moduleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		ok, err := hasBuildableGo(p)
		if err != nil {
			return err
		}
		if ok {
			rel, err := filepath.Rel(l.moduleRoot, p)
			if err != nil {
				return err
			}
			if rel == "." {
				paths = append(paths, l.modulePath)
			} else {
				paths = append(paths, l.modulePath+"/"+filepath.ToSlash(rel))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Loaded returns every module-local package this loader has loaded so
// far (roots and their local dependencies) in sorted path order — the
// set RunFixture analyzes, so a fixture's stub dependencies are checked
// against their own want comments too.
func (l *Loader) Loaded() []*Package {
	paths := make([]string, 0, len(l.cache))
	for p := range l.cache {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkgs = append(pkgs, l.cache[p])
	}
	return pkgs
}

// dirFor maps an import path to the directory that provides it, or
// ok=false when the path belongs to the standard library.
func (l *Loader) dirFor(path string) (string, bool) {
	if l.srcRoot != "" {
		dir := filepath.Join(l.srcRoot, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
		return "", false
	}
	if path == l.modulePath {
		return l.moduleRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
		return filepath.Join(l.moduleRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// parseDir parses a directory's non-test Go files with comments (the
// suppression scanner needs them).
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	names, err := buildableGoFiles(dir)
	if err != nil {
		return nil, err
	}
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func buildableGoFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

func hasBuildableGo(dir string) (bool, error) {
	names, err := buildableGoFiles(dir)
	return len(names) > 0, err
}

// importerFunc adapts a closure to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
