package mpi

import "fmt"

// Request represents an outstanding nonblocking operation. Requests are
// completed by Comm.Wait or Comm.Waitall on the same rank that created
// them; they are not safe for concurrent use.
type Request struct {
	c    *Comm
	done bool

	// receive-side fields
	src, tag int
	bytes    int // filled on completion
}

// IsendN posts a nonblocking phantom send of n bytes. The injection cost
// is charged immediately (the NIC serialises outgoing messages); Wait is a
// local no-op, mirroring eager-protocol MPI.
func (c *Comm) IsendN(dst, tag, n int) *Request {
	c.st.observe()
	start := c.sendPhantom(dst, tag, n)
	c.record("Isend", n, start)
	return &Request{c: c, done: true}
}

// IrecvN posts a nonblocking phantom receive. Matching happens at Wait.
func (c *Comm) IrecvN(src, tag int) *Request {
	return &Request{c: c, src: src, tag: tag}
}

// Wait completes the request. For receives it blocks until the matching
// message arrives and advances the virtual clock to the arrival time.
func (c *Comm) Wait(r *Request) {
	if r.c.st != c.st {
		panic("mpi: Wait called on a different rank's request")
	}
	if r.done {
		return
	}
	c.st.observe()
	// Match on the communicator the request was posted on (its context id
	// scopes the matching), which shares this rank's clock.
	start := c.st.clock
	m := r.c.recvRaw(r.src, r.tag)
	if m.kind != payloadNone {
		panic("mpi: phantom receive matched a message with a real payload")
	}
	r.bytes = m.bytes
	r.done = true
	m.release()
	c.record("Wait", r.bytes, start)
}

// Waitall completes all requests in order.
func (c *Comm) Waitall(reqs ...*Request) {
	for i, r := range reqs {
		if r == nil {
			panic(fmt.Sprintf("mpi: Waitall: nil request at index %d", i))
		}
		c.Wait(r)
	}
}
