//go:build !race

package pdes

// raceEnabled reports whether the race detector instruments this build;
// see race_on_test.go. The allocation test skips under the detector,
// like the module's other allocation tests: under -race sync.Pool drops
// items at random, so allocation counts there are not the shipped
// build's.
const raceEnabled = false
