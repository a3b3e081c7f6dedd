package facility

import "math"

// shareTracker is the decayed-usage fairshare account book. Every
// tenant's usage (slot-seconds) decays exponentially with one shared
// half-life; priority orders by decayed usage divided by the tenant's
// weight, lowest first. Because the decay rate is shared, the relative
// order of two tenants' usage never changes between charges — decay
// alone can never reshuffle the queue, which keeps scheduling passes
// cheap and the schedule a pure function of the charge sequence.
//
// Accounts are dense: each is named by the tenant index the job source
// gives (a generated workload's Zipf rank, or a slice's order of first
// arrival), and they live in fixed-size chunks, allocated as an index
// in their range first arrives, so an account's address never moves
// and a run allocates one chunk per acctChunk indices instead of one
// object per tenant. The facility resolves each job's account once, as
// its arrival window fills, and caches the pointer in the job record; a
// tenant's name is looked up only for its weight, once, when its
// account is first used.
//
// Past an account's first-use weighting, charge is the only mutator:
// queries (usageAt, key) compute the decay on the fly without folding it
// into the stored value, so the account book's state is identical no
// matter how often — or from which scheduler path — priorities were
// queried between charges.
type shareTracker struct {
	half    float64
	weights map[string]float64
	chunks  [][]tenantUsage // nil until an index in range is used
}

// acctChunk is the number of accounts per storage chunk.
const acctChunk = 256

// tenantUsage is one tenant's account: value slot-seconds decayed to
// time at, the tenant's cached weight (0 until the account is first
// used: weights are positive), and a charge generation counter (the
// staleness stamp for priority keys cached in the pending heap).
type tenantUsage struct {
	value float64
	at    float64
	w     float64
	gen   uint32
}

func newShareTracker(halfLife float64, weights map[string]float64) *shareTracker {
	if halfLife == 0 {
		halfLife = 86400
	}
	return &shareTracker{half: halfLife, weights: weights}
}

// account returns the account with dense index i, weighting it from the
// config by the tenant's name (unlisted = 1) on first use.
func (s *shareTracker) account(i int32, tenant string) *tenantUsage {
	c := int(i) / acctChunk
	for len(s.chunks) <= c {
		s.chunks = append(s.chunks, nil)
	}
	if s.chunks[c] == nil {
		s.chunks[c] = make([]tenantUsage, acctChunk)
	}
	u := &s.chunks[c][int(i)%acctChunk]
	if u.w == 0 {
		u.w = 1
		if w, ok := s.weights[tenant]; ok {
			u.w = w
		}
	}
	return u
}

// charge bills slot-seconds to account u at time t, folding the decay
// since the previous charge into the stored value.
func (s *shareTracker) charge(u *tenantUsage, t, slotSeconds float64) {
	if t > u.at {
		u.value *= math.Exp2(-(t - u.at) / s.half)
		u.at = t
	}
	u.value += slotSeconds
	u.gen++
}

// usageAt returns the account's weight-normalised decayed usage at t —
// the fairshare sort key (lower = higher priority). Tenants that never
// ran sit at 0 and sort first, then by (submit, seq).
func (u *tenantUsage) usageAt(t, half float64) float64 {
	v := u.value
	if t > u.at {
		v *= math.Exp2(-(t - u.at) / half)
	}
	return v / u.w
}

// key returns the account's time-independent priority key. With one
// shared half-life, log2(usage(t)/w) = log2(value/w) - (t-at)/half for
// every t, so ordering accounts by log2(value/w) + at/half at ANY query
// time equals ordering them by decayed usage: the key never expires,
// only charges move it — and a charge only moves it upward. Tenants
// that never ran sit at -Inf, exactly like usage 0 in the linear domain.
func (u *tenantUsage) key(half float64) float64 {
	return math.Log2(u.value/u.w) + u.at/half
}
