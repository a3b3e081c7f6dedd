// Package experiments is the detsources fixture's writer side: artefact
// writers that reach a wall-clock or global-rand source through a call
// chain. Nothing is reported here; each source is reported once, at its
// call in package sim, which is where the fix or an audited allow goes.
package experiments

import (
	"repro/internal/sim"
)

// helper hides the clock read one hop deeper inside the module.
func helper() int64 { return sim.Stamp() }

func writeManifest() int64 { return helper() }

func writeFigure() float64 { return sim.Jitter() }

func writeTable(clock float64) float64 { return sim.Virtual(clock) }

func writeVolatile() int64 { return sim.AllowedStamp() }
