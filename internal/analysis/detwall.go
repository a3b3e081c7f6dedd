package analysis

import (
	"go/ast"
	"strings"
)

// detwallForbidden are the time-package functions that read or schedule
// against the host's wall clock. time.Duration values and arithmetic are
// fine — only *sources* of wall time break virtual-time determinism.
var detwallForbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
	"Sleep":     true,
}

// Detwall forbids wall-clock sources in the virtual-time model packages.
// Every duration a model reports must derive from the simulated clock
// (mpi.Comm.Clock, sim.Meter) so artefacts regenerate byte-identically
// regardless of host speed or scheduling; wall-time readings belong in
// cmd/* manifests (recorded as volatile) or in volatile scheduler
// latency series, each read audited in place with an allow comment.
//
// Every in-module package that is not a main package lives under
// internal/ (selfcheck pins this), so scoping detwall to internal/*
// covers every clock read an artefact writer can reach.
var Detwall = &Analyzer{
	Name: "detwall",
	Doc: "forbid time.Now/Since/After/... in virtual-time packages " +
		"(internal/*); exemptions only via //lint:allow reprolint/detwall comments",
	Run: runDetwall,
}

func runDetwall(pass *Pass) error {
	if !strings.HasPrefix(pass.Pkg.Path(), ModulePath+"/internal/") {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeObj(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if !detwallForbidden[fn.Name()] {
				return true
			}
			pass.Reportf(call.Pos(),
				"time.%s reads the wall clock in virtual-time package %s; "+
					"derive durations from the simulated clock, or audit the read "+
					"with //lint:allow reprolint/detwall <reason>",
				fn.Name(), pass.Pkg.Path())
			return true
		})
	}
	return nil
}
