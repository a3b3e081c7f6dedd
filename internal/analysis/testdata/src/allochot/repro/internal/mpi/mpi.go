// Package mpi is the allochot fixture: hot functions named by the test, the
// direct allocation catalogue, and cross-package transitive facts.
package mpi

import (
	"repro/internal/pdes"
)

// Comm is a stand-in for the message-plane endpoint.
type Comm struct {
	buf   []float64
	q     pdes.Queue
	sum   string
	cb    func() int
	sink  interface{ Write(p []byte) (int, error) }
	table map[int]int
}

func (c *Comm) SendAppend(v float64) {
	c.buf = append(c.buf, v) // want `allocation in hot function Comm.SendAppend: append may grow its backing array`
}

func (c *Comm) SendMake(n int) {
	c.buf = make([]float64, n) // want `allocation in hot function Comm.SendMake: make allocates`
}

func (c *Comm) SendLiteral() {
	c.table = map[int]int{1: 1} // want `allocation in hot function Comm.SendLiteral: composite literal allocates a map`
}

func (c *Comm) SendConcat(a, b string) {
	c.sum = a + b // want `allocation in hot function Comm.SendConcat: string concatenation builds a new string`
}

func (c *Comm) SendClosure(v float64) {
	f := func() int { return len(c.buf) } // want `allocation in hot function Comm.SendClosure: capturing function literal allocates a closure`
	c.cb = f
}

func (c *Comm) SendIndirect() {
	c.cb() // want `allocation in hot function Comm.SendIndirect: indirect call \(unknown allocation behaviour\)`
}

func (c *Comm) SendIface(p []byte) {
	c.sink.Write(p) // want `allocation in hot function Comm.SendIface: interface method call`
}

// box consumes an any parameter.
func box(v any) any { return v }

func (c *Comm) SendBoxed(v float64) {
	box(v) // want `allocation in hot function Comm.SendBoxed: argument boxed into interface parameter`
}

func (c *Comm) SendTransitive(e int) {
	c.q.Push(e) // want `hot function Comm.SendTransitive calls allocating function \(repro/internal/pdes.Queue.Push -> append may grow its backing array at pdes.go:15\)`
}

func (c *Comm) SendPooled(e int) {
	c.q.PushPooled(e) // clean: the callee's allow clears its Allocates fact
}

func (c *Comm) SendLen() int {
	return c.q.Len() // clean: allocation-free callee across the boundary
}

func (c *Comm) SendAllowed(v float64) {
	//lint:allow reprolint/allochot audited amortised growth in the fixture
	c.buf = append(c.buf, v)
}

// SendCold is not hot: the same allocation draws no diagnostic.
func (c *Comm) SendCold(v float64) {
	c.buf = append(c.buf, v)
}

func (c *Comm) SendPanicGuard(v float64) {
	if v < 0 {
		panic(boxString("negative", v)) // clean: panic arguments are terminal cold paths
	}
	c.buf[0] = v
}

func boxString(s string, v float64) string { return s }

func (c *Comm) SendSpawn() {
	go c.SendLen() // want `allocation in hot function Comm.SendSpawn: go statement allocates a goroutine`
}
