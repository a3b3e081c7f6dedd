// Package leaf is the facts-engine fixture's dependency: one allocation
// source of each shape at the bottom of the call graph, plus recursion
// shapes.
package leaf

// Alloc allocates directly.
func Alloc() []int { return make([]int, 8) }

// Concat allocates by building a new string.
func Concat(a, b string) string { return a + b }

// Spawn allocates a goroutine.
func Spawn() {
	go func() {}()
}

// Clean is effect-free.
func Clean(a, b int) int { return a + b }

// Even and Odd form a two-node SCC; only Odd allocates, so the SCC
// union must hand both the Allocates fact.
func Even(n int) []int {
	if n == 0 {
		return nil
	}
	return Odd(n - 1)
}

func Odd(n int) []int {
	if n == 0 {
		return make([]int, 1)
	}
	return Even(n - 1)
}

// Count is self-recursive and effect-free: the self-loop SCC must
// converge without inventing facts.
func Count(n int) int {
	if n == 0 {
		return 0
	}
	return 1 + Count(n-1)
}
