//go:build !race

package osu

// raceEnabled reports whether the race detector instruments this build;
// see race_on_test.go. The allocation budget is asserted on the
// uninstrumented build only: under the detector sync.Pool drops items at
// random, so the message plane re-allocates pooled envelopes.
const raceEnabled = false
