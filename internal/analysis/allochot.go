package analysis

import (
	"bufio"
	_ "embed"
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// allochotHotDefault ships the repository's hot-list: the per-message,
// per-event and per-job functions whose allocation behaviour the
// perfbench budgets (mpi/world-churn-64, facility/run-10k, run-100k)
// gate at runtime. Format: one "pkgpath funcname  # why it is hot" per
// line; methods are named "Type.funcname".
//
//go:embed allochot_hot.txt
var allochotHotDefault string

// allochotHot maps canonical function keys to the reason the function
// is on the hot path.
var allochotHot = mustParseAllowlist(allochotHotDefault)

func mustParseAllowlist(content string) map[string]string {
	m, err := parseAllowlist(content)
	if err != nil {
		panic("analysis: embedded allochot_hot.txt: " + err.Error())
	}
	return m
}

// parseAllowlist reads the "pkgpath funcname  # reason" grammar into a
// map from canonical function key to reason.
func parseAllowlist(content string) (map[string]string, error) {
	m := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(content))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entry, reason, _ := strings.Cut(line, "#")
		fields := strings.Fields(entry)
		if len(fields) != 2 {
			return nil, fmt.Errorf("hot-list line %q: want \"pkgpath funcname  # reason\"", line)
		}
		m[fields[0]+"."+fields[1]] = strings.TrimSpace(reason)
	}
	return m, sc.Err()
}

// HotlistKeys returns the embedded hot-list's canonical function keys
// in sorted order. The self-check test resolves each against the
// computed fact table so a renamed hot function cannot silently drop
// out of allochot's coverage.
func HotlistKeys() []string {
	keys := make([]string, 0, len(allochotHot))
	for k := range allochotHot {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Allochot proves the hot paths allocation-free at compile time: inside
// every function listed in the embedded hot-list, it reports each
// potential allocation site (append growth, make/new, closure captures,
// interface boxing, string concat, slice/map literals, calls assumed to
// allocate) and each call into a module function whose interprocedural
// fact says it transitively allocates. Audited amortised allocations
// (pooled slab growth, cap-guarded doubling) are silenced with a
// reasoned //lint:allow reprolint/allochot comment, which also clears
// the callee's Allocates fact so the allowance composes up the call
// graph.
var Allochot = &Analyzer{
	Name: "allochot",
	Doc: "forbid allocation in the functions of the embedded hot-list " +
		"(mpi send/recv/inbox, pdes queue, facility heap scheduler); " +
		"escape hatch: //lint:allow reprolint/allochot <reason>",
	NeedsFacts: true,
	Run:        runAllochot,
}

// passDeclKey is DeclKey over a Pass (the analyzer-side view of a
// package).
func passDeclKey(pass *Pass, fd *ast.FuncDecl) string {
	obj, _ := pass.Info.Defs[fd.Name].(*types.Func)
	return FuncKey(obj)
}

func runAllochot(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := passDeclKey(pass, fd)
			if _, listed := allochotHot[key]; !listed {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				if rt := recvTypeName(fd.Recv.List[0].Type); rt != "" {
					name = rt + "." + name
				}
			}
			w := &allocWalker{
				fset: pass.Fset,
				info: pass.Info,
				tpkg: pass.Pkg,
				alloc: func(node ast.Node, why string) {
					pass.Reportf(node.Pos(), "allocation in hot function %s: %s", name, why)
				},
				localCall: func(call *ast.CallExpr, fn *types.Func, ckey string) {
					ff := pass.Facts.Of(ckey)
					if !ff.Allocates {
						return
					}
					pass.Reportf(call.Pos(),
						"hot function %s calls allocating function (%s)", name, pass.Facts.AllocChain(ckey))
				},
			}
			w.walk(fd.Body)
		}
	}
	return nil
}
