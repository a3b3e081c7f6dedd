//go:build race

package mpi

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
