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
// Accounts are dense: intern gives each tenant name an index on first
// sight, and the accounts live in fixed-size chunks, so an account's
// address never moves and a run allocates one chunk per acctChunk
// tenants instead of one object per tenant. The facility interns each
// arriving job's tenant once and caches the account pointer in the
// job record; nothing past arrival hashes a tenant name.
//
// charge is the only mutator: queries (usageAt, key) compute the decay
// on the fly without folding it into the stored value, so the account
// book's state is identical no matter how often — or from which
// scheduler path — priorities were queried between charges.
type shareTracker struct {
	half    float64
	weights map[string]float64
	index   map[string]int32
	chunks  [][]tenantUsage
}

// acctChunk is the number of accounts per storage chunk.
const acctChunk = 256

// tenantUsage is one tenant's account: value slot-seconds decayed to
// time at, the tenant's cached weight, and a charge generation counter
// (the staleness stamp for priority keys cached in the pending heap).
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
	return &shareTracker{half: halfLife, weights: weights, index: map[string]int32{}}
}

// intern returns the tenant's dense account index, creating an empty
// account (weighted from the config, unlisted = 1) on first sight.
func (s *shareTracker) intern(tenant string) int32 {
	if i, ok := s.index[tenant]; ok {
		return i
	}
	i := int32(len(s.index))
	if int(i)%acctChunk == 0 {
		s.chunks = append(s.chunks, make([]tenantUsage, acctChunk))
	}
	w := 1.0
	if ww, ok := s.weights[tenant]; ok {
		w = ww
	}
	s.at(i).w = w
	s.index[tenant] = i
	return i
}

// at returns the account with dense index i (from intern).
func (s *shareTracker) at(i int32) *tenantUsage {
	return &s.chunks[i/acctChunk][i%acctChunk]
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
