// Package mid sits one hop above leaf: its facts must arrive by
// following cross-package call edges, not by rescanning leaf's bodies.
package mid

import "repro/internal/leaf"

// Wrap crosses the boundary into an allocating callee.
func Wrap() []int { return leaf.Alloc() }

// Join reaches the string concatenation one hop down.
func Join() string { return leaf.Concat("a", "b") }

// Burst transitively spawns.
func Burst() { leaf.Spawn() }

// Calm only touches the effect-free leaf.
func Calm() int { return leaf.Clean(1, 2) }

// Deep stacks a third hop so AllocChain has a real path to print.
func Deep() []int { return Wrap() }
