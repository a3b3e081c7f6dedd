//go:build race

package pdes

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
