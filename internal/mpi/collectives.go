package mpi

import (
	"fmt"
	"sort"
)

// Op is a reduction operator for Allreduce.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
	Min
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Sum:
		return "sum"
	case Max:
		return "max"
	case Min:
		return "min"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

func (o Op) combine(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mpi: reduction length mismatch %d vs %d", len(dst), len(src)))
	}
	switch o {
	case Sum:
		for i, v := range src {
			dst[i] += v
		}
	case Max:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	case Min:
		for i, v := range src {
			if v < dst[i] {
				dst[i] = v
			}
		}
	default:
		panic(fmt.Sprintf("mpi: unknown op %v", o))
	}
}

// Reserved tags for collective rounds. User code and collectives never
// interleave on one communicator from one rank, and per-(src,tag) FIFO
// matching keeps consecutive collectives correctly paired.
const (
	tagBarrier = 1 << 20
	tagBcast   = 1<<20 + 1
	tagReduce  = 1<<20 + 2
	tagAllred  = 1<<20 + 3
	tagAllgat  = 1<<20 + 6
	tagAlltoal = 1<<20 + 7
	tagSplit   = 1<<20 + 8
	tagRing    = 1<<20 + 9 // RingExchangeN played out as messages
)

// collective runs body with nested tracing suppressed and records the whole
// operation as a single call, the way IPM reports MPI collectives. It
// observes: the rank's logged phantom operations are evaluated first.
func (c *Comm) collective(name string, bytes int, body func()) {
	c.st.observe()
	start := c.st.clock
	c.st.quiet++
	body()
	c.st.quiet--
	c.record(name, bytes, start)
}

// Barrier blocks until all ranks of the communicator reach it, using a
// dissemination barrier (ceil(log2 p) rounds for any p).
func (c *Comm) Barrier() {
	c.phantom(collBarrier, 0, 0)
}

// binomial runs the binomial-tree communication of a broadcast rooted at
// root; send/recv implement one hop.
func (c *Comm) binomialBcast(root int, send func(dst int), recv func(src int)) {
	p := c.Size()
	vr := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask != 0 {
			recv((vr - mask + root) % p)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if vr+mask < p {
			send((vr + mask + root) % p)
		}
		mask >>= 1
	}
}

// BcastN broadcasts a phantom payload of n bytes from root.
func (c *Comm) BcastN(root, n int) {
	c.checkRank(root, "root")
	c.collective("Bcast", n, func() {
		c.binomialBcast(root,
			func(dst int) { c.SendN(dst, tagBcast, n) },
			func(src int) { c.RecvN(src, tagBcast) })
	})
}

func (c *Comm) reduceBody(op Op, root int, data []float64) {
	p := c.Size()
	vr := (c.rank - root + p) % p
	mask := 1
	for mask < p {
		if vr&mask == 0 {
			if vr+mask < p {
				// Combine straight out of the arriving message's pooled
				// payload: no per-round scratch slice.
				src := (vr + mask + root) % p
				c.recvCombine(op, src, tagReduce, data)
			}
		} else {
			dst := (vr - mask + root) % p
			c.Send(dst, tagReduce, data)
			break
		}
		mask <<= 1
	}
}

// Allreduce combines data across all ranks with op, leaving the result in
// every rank's buffer. Power-of-two sizes use recursive doubling
// (ceil(log2 p) rounds); other sizes fall back to reduce+broadcast.
func (c *Comm) Allreduce(op Op, data []float64) {
	p := c.Size()
	c.collective("Allreduce", 8*len(data), func() {
		if p&(p-1) == 0 {
			for mask := 1; mask < p; mask <<= 1 {
				partner := c.rank ^ mask
				c.Send(partner, tagAllred, data)
				c.recvCombine(op, partner, tagAllred, data)
			}
			return
		}
		c.reduceBody(op, 0, data)
		c.binomialBcast(0,
			func(dst int) { c.Send(dst, tagBcast, data) },
			func(src int) { c.Recv(src, tagBcast, data) })
	})
}

// AllreduceN performs the communication pattern of an n-byte Allreduce
// with phantom payloads (the skeleton workloads' workhorse: the paper's
// KSp section is "entirely 4-byte all-reduce operations").
func (c *Comm) AllreduceN(n int) {
	c.phantom(collAllreduce, n, n)
}

// AllgatherN performs a phantom allgather where each rank contributes n
// bytes.
func (c *Comm) AllgatherN(n int) {
	c.phantom(collAllgather, n, n)
}

// AlltoallComplex exchanges equal complex128 blocks (used by the FT
// transpose).
func (c *Comm) AlltoallComplex(send, recv []complex128) {
	p := c.Size()
	if len(send) != len(recv) || len(send)%p != 0 {
		panic(fmt.Sprintf("mpi: AlltoallComplex buffer lengths %d/%d not a multiple of %d ranks", len(send), len(recv), p))
	}
	n := len(send) / p
	c.collective("Alltoall", 16*len(send), func() {
		copy(recv[c.rank*n:(c.rank+1)*n], send[c.rank*n:(c.rank+1)*n])
		for s := 1; s < p; s++ {
			dst := (c.rank + s) % p
			src := (c.rank - s + p) % p
			c.SendComplex(dst, tagAlltoal, send[dst*n:(dst+1)*n])
			c.RecvComplex(src, tagAlltoal, recv[src*n:(src+1)*n])
		}
	})
}

// AlltoallN performs a phantom all-to-all where each rank sends blockBytes
// to every other rank. This is the MPI_Alltoall whose per-pair block size
// shrinks as 1/p^2, the effect the paper uses to explain FT's recovery at
// high process counts on DCC.
func (c *Comm) AlltoallN(blockBytes int) {
	c.phantom(collAlltoall, blockBytes, blockBytes*c.Size())
}

// Split partitions the communicator by color; ranks with equal color form
// a new communicator ordered by (key, parent rank). Like MPI_Comm_split it
// is collective and communicates (an allgather of color/key pairs).
func (c *Comm) Split(color, key int) *Comm {
	p := c.Size()
	pairs := make([]int, 2*p)
	c.collective("Comm_split", 16, func() {
		// Gather (color, key) from everyone via the ring allgather.
		mine := []int{color, key}
		copy(pairs[2*c.rank:], mine)
		right := (c.rank + 1) % p
		left := (c.rank - 1 + p) % p
		for s := 0; s < p-1; s++ {
			outBlk := (c.rank - s + p) % p
			inBlk := (c.rank - s - 1 + p) % p
			c.SendInts(right, tagSplit, pairs[2*outBlk:2*outBlk+2])
			c.RecvInts(left, tagSplit, pairs[2*inBlk:2*inBlk+2])
		}
	})

	type member struct{ key, parentRank int }
	var members []member
	for r := 0; r < p; r++ {
		if pairs[2*r] == color {
			members = append(members, member{key: pairs[2*r+1], parentRank: r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].parentRank < members[j].parentRank
	})

	group := make([]int, len(members))
	newRank := -1
	for i, m := range members {
		group[i] = c.group[m.parentRank]
		if m.parentRank == c.rank {
			newRank = i
		}
	}
	// Derive a context id every member computes identically: mix the parent
	// context with the color and the parent-comm split generation.
	c.nsplits++
	ctx := c.ctx
	ctx = ctx*0x9e3779b97f4a7c15 + uint64(color+1)
	ctx = ctx*0x9e3779b97f4a7c15 + uint64(c.nsplits)
	ctx ^= ctx >> 29

	return &Comm{st: c.st, ctx: ctx, rank: newRank, group: group}
}
