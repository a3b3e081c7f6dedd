//go:build race

package osu

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
