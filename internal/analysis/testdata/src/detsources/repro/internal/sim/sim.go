// Package sim is the detsources fixture's dependency stub:
// nondeterminism sources buried one package away from the artefact
// writers. detwall and detrand report each source at its call.
package sim

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock.
func Stamp() int64 { return time.Now().UnixNano() } // want `time\.Now reads the wall clock in virtual-time package repro/internal/sim`

// Jitter draws from the runtime-seeded global source.
func Jitter() float64 { return rand.Float64() } // want `global math/rand\.Float64 draws from the runtime-seeded shared source`

// Virtual is clean: derived from an argument, no host clock.
func Virtual(clock float64) float64 { return clock * 2 }

// AllowedStamp reads the clock under a reviewed detwall allow, so it
// draws no finding (the fixture runner rejects any unexpected one).
func AllowedStamp() int64 {
	//lint:allow reprolint/detwall volatile wall-latency series, excluded from stable snapshots
	return time.Now().UnixNano()
}
