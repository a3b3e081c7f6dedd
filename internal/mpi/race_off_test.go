//go:build !race

package mpi

// raceEnabled reports whether the race detector instruments this build;
// see race_on_test.go. The allocation tests skip under the detector:
// there sync.Pool drops items at random, so a steady-state Send/Recv
// re-allocates a pooled envelope every few messages (about 0.5
// allocs/op) although the shipped build allocates none.
const raceEnabled = false
