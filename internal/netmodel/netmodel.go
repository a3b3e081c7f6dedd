// Package netmodel provides LogGP-style analytic models of the cluster
// interconnects studied in the paper: QDR InfiniBand (Vayu), virtualised
// 10 Gigabit Ethernet (EC2/Xen), Gigabit Ethernet behind a VMware vSwitch
// (DCC), and intra-node shared memory.
//
// A point-to-point transfer of n bytes started at sender virtual time t
// completes at the receiver at
//
//	t + SendOverhead + Latency(+handshake) + n/Bandwidth + jitter
//
// and occupies the sender for SendOverhead + n/Bandwidth (the NIC
// serialises outgoing data), which is what makes windowed bandwidth tests
// saturate at the link rate while ping-pong tests remain latency-bound.
package netmodel

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Link models one interconnect.
type Link struct {
	Name string

	Latency   float64 // one-way wire+stack latency for an eager message, seconds
	Bandwidth float64 // sustained point-to-point bandwidth, bytes/s

	SendOverhead float64 // CPU time charged to the sender per message, seconds
	RecvOverhead float64 // CPU time charged to the receiver per message, seconds

	// EagerLimit is the message size (bytes) above which the transport
	// switches to a rendezvous protocol, adding two extra latencies for the
	// RTS/CTS handshake. Zero disables rendezvous.
	EagerLimit int

	// Jitter perturbs the wire time of each message (vSwitch fluctuation,
	// Xen softirq delays). Applied to the latency+serialisation term.
	Jitter sim.Jitter

	// ShareExponent controls how NIC bandwidth degrades when `share`
	// ranks contend for it: effective bandwidth = Bandwidth/share^exp.
	// 0 or 1 gives fair linear sharing; >1 models software devices whose
	// per-stream throughput collapses under concurrency (the emulated
	// E1000 behind VMware's vSwitch burns hypervisor CPU per packet).
	ShareExponent float64
}

// Validate reports configuration errors.
func (l *Link) Validate() error {
	switch {
	case l.Latency < 0:
		return fmt.Errorf("netmodel: %s: negative latency", l.Name)
	case l.Bandwidth <= 0:
		return fmt.Errorf("netmodel: %s: bandwidth must be positive", l.Name)
	case l.SendOverhead < 0 || l.RecvOverhead < 0:
		return fmt.Errorf("netmodel: %s: negative overhead", l.Name)
	case l.EagerLimit < 0:
		return fmt.Errorf("netmodel: %s: negative eager limit", l.Name)
	}
	return nil
}

// SenderBusy returns the virtual seconds the sender's core is occupied by
// an n-byte send (message injection: overhead plus NIC serialisation).
func (l *Link) SenderBusy(n int) float64 {
	return l.SendOverhead + float64(n)/l.Bandwidth
}

// WireTime returns the modelled seconds between send start and arrival of
// the last byte at the receiver, before jitter.
func (l *Link) WireTime(n int) float64 {
	t := l.Latency + float64(n)/l.Bandwidth
	if l.EagerLimit > 0 && n > l.EagerLimit {
		t += 2 * l.Latency // RTS/CTS handshake
	}
	return t
}

// Transfer returns (senderBusy, arrivalDelay) for an n-byte message using
// jitter stream r: the sender's clock advances by senderBusy and the
// message arrives arrivalDelay seconds after send start. r may be nil for
// a noise-free transfer.
func (l *Link) Transfer(r *sim.RNG, n int) (senderBusy, arrivalDelay float64) {
	return l.TransferDivided(r, n, 1)
}

// ShareDivisor returns the factor by which share ranks contending for
// this link's bandwidth divide it (ranks co-located on a node share its
// NIC): share^ShareExponent for a positive exponent, else share itself.
// share < 1 is treated as 1. The divisor depends only on share and
// ShareExponent, so a caller whose share counts come from a fixed
// placement computes each one once and passes it to TransferDivided;
// Degraded keeps the exponent, so a degraded copy of the link shares the
// same divisors.
func (l *Link) ShareDivisor(share float64) float64 {
	if share < 1 {
		return 1
	}
	if l.ShareExponent > 0 && share > 1 {
		return math.Pow(share, l.ShareExponent)
	}
	return share
}

// TransferDivided is Transfer with NIC bandwidth sharing: the effective
// per-rank bandwidth is Bandwidth/div, where div is a ShareDivisor
// result; latency is unaffected.
func (l *Link) TransferDivided(r *sim.RNG, n int, div float64) (senderBusy, arrivalDelay float64) {
	ser := float64(n) / (l.Bandwidth / div)
	senderBusy = l.SendOverhead + ser
	wire := l.Latency + ser
	if l.EagerLimit > 0 && n > l.EagerLimit {
		wire += 2 * l.Latency // RTS/CTS handshake
	}
	if r != nil {
		wire = l.Jitter.Apply(r, wire)
	}
	if wire < 0 {
		wire = 0
	}
	return senderBusy, l.SendOverhead + wire
}
