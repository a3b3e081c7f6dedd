package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

const obsPkg = ModulePath + "/internal/obs"

// Obsstable cross-checks the observability plane's stable-snapshot
// contract (PR 4): a metric registered through the stable constructors
// (Registry.Counter/Gauge/Histogram) is byte-compared between -j 1 and
// -j 8 runs, so it must never be fed from wall-clock durations or
// scheduling-dependent pool traffic. Those sources belong in
// Volatile{Counter,Gauge,Histogram} series, which the stable snapshot
// excludes. The analyzer resolves, package-locally, which variables and
// struct fields hold stable metrics, then inspects every value fed into
// them.
var Obsstable = &Analyzer{
	Name: "obsstable",
	Doc: "metrics registered without the Volatile marker must not be fed " +
		"wall-clock or pool-hit values (stable snapshots are byte-compared " +
		"across worker counts)",
	Run: runObsstable,
}

var (
	stableCtors = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true}
	feedMethods = map[string]bool{
		"Add": true, "AddSeconds": true, "Inc": true,
		"Set": true, "SetMax": true,
		"Observe": true, "ObserveSeconds": true, "Merge": true,
	}
	// volatileNameRe spots wall-clock-ish sources syntactically: the
	// repository's naming discipline makes wall/pool data self-identifying
	// (Result.Wall, poolLease, time.Since, Duration.Nanoseconds on a wall
	// interval all surface one of these tokens).
	volatileNameRe = regexp.MustCompile(`(?i)wall|pool(hit|miss|lease)`)
)

func runObsstable(pass *Pass) error {
	stable := stableMetricObjects(pass)
	if len(stable) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, typ, method, okM := methodInfo(pass.Info, call)
			if !okM || pkg != obsPkg || !feedMethods[method] {
				return true
			}
			if typ != "Counter" && typ != "Gauge" && typ != "Histogram" {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recvObj := metricObjOf(pass, sel.X)
			name, isStable := stable[recvObj]
			if recvObj == nil || !isStable {
				return true
			}
			if why := volatileSource(pass, call); why != "" {
				pass.Reportf(call.Pos(),
					"stable metric %q fed from %s; register it with the "+
						"Volatile%s constructor or feed it virtual-time data "+
						"(stable snapshots must be -j invariant)", name, why, typ)
			}
			return true
		})
	}
	return nil
}

// stableMetricObjects maps variables and struct-field objects to the
// metric name they were registered under via a *stable* constructor.
// Resolution is package-local and flow-insensitive: any assignment or
// composite-literal field whose RHS is Registry.Counter/Gauge/Histogram.
func stableMetricObjects(pass *Pass) map[types.Object]string {
	out := map[types.Object]string{}
	record := func(lhs ast.Expr, call *ast.CallExpr) {
		pkg, typ, method, ok := methodInfo(pass.Info, call)
		if !ok || pkg != obsPkg || typ != "Registry" || !stableCtors[method] {
			return
		}
		name := "?"
		if len(call.Args) > 0 {
			if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok {
				name = strings.Trim(lit.Value, `"`)
			}
		}
		if obj := metricObjOf(pass, lhs); obj != nil {
			out[obj] = name
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range v.Rhs {
					if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && i < len(v.Lhs) {
						record(v.Lhs[i], call)
					}
				}
			case *ast.CompositeLit:
				for _, el := range v.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if call, ok := ast.Unparen(kv.Value).(*ast.CallExpr); ok {
						record(kv.Key, call)
					}
				}
			}
			return true
		})
	}
	return out
}

// metricObjOf resolves the object a metric expression refers to: a plain
// variable, or the struct field of a selector chain (s.met.jobWall →
// field jobWall). Field objects are shared across the package, which is
// what lets registration in one function inform uses in another.
func metricObjOf(pass *Pass, e ast.Expr) types.Object {
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := pass.Info.Defs[v]; o != nil {
			return o
		}
		return pass.Info.Uses[v]
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[v]; ok {
			return sel.Obj()
		}
		return pass.Info.Uses[v.Sel]
	}
	return nil
}

// volatileSource describes why a feed call's arguments look
// scheduling-dependent ("" when they look deterministic).
func volatileSource(pass *Pass, call *ast.CallExpr) string {
	var why string
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if why != "" {
				return false
			}
			switch v := n.(type) {
			case *ast.CallExpr:
				if fn := calleeObj(pass.Info, v); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "time" && detwallForbidden[fn.Name()] {
					why = "time." + fn.Name()
					return false
				}
			case *ast.Ident:
				if volatileNameRe.MatchString(v.Name) {
					why = "wall/pool-derived value " + v.Name
					return false
				}
			case *ast.SelectorExpr:
				if volatileNameRe.MatchString(v.Sel.Name) {
					why = "wall/pool-derived value " + v.Sel.Name
					return false
				}
			}
			return true
		})
		if why != "" {
			break
		}
	}
	return why
}
