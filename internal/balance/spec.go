package balance

import (
	"popcount/internal/rng"
	"popcount/internal/sim"
)

// Powers spec state codes pack the logarithmic load shifted by one
// (empty −1 maps to 0, so k ∈ [−1, 62] occupies [0, 63]) with the
// excluded-leader marker in bit 6. The domain is 128 codes, small
// enough that the agent adapter precompiles the flat successor table.
const (
	powersLeaderBit = 1 << 6
	powersDomain    = 1 << 7
)

func encodePowers(k int16, leader bool) uint64 {
	c := uint64(k + 1)
	if leader {
		c |= powersLeaderBit
	}
	return c
}

func decodePowersK(c uint64) int16 { return int16(c&(powersLeaderBit-1)) - 1 }

// NewPowersSpec returns the canonical transition spec of the
// powers-of-two load balancing process in Lemma 8's setting: agent 1
// holds 2^kappa tokens, every other agent is empty, and (when
// excludeLeader is set) agent 0 plays the non-participating leader, as
// in the Search Protocol. Pairs not involving an empty agent and a
// loaded one are certain no-ops, which dominate the Θ(n log n) run, so
// the spec opts into the skip path and the count engines.
func NewPowersSpec(n, kappa int, excludeLeader bool) *sim.Spec {
	if kappa < 0 || kappa > 62 {
		panic("balance: kappa out of range")
	}
	if n < 2 {
		panic("balance: population below 2")
	}
	empty := encodePowers(Empty, false)
	loaded := encodePowers(int16(kappa), false)
	leader := encodePowers(Empty, true)
	return &sim.Spec{
		Name:   "powers",
		N:      n,
		Domain: powersDomain,
		Init: func() map[uint64]int64 {
			init := map[uint64]int64{loaded: 1}
			rest := int64(n - 1)
			if excludeLeader {
				init[leader] = 1
				rest--
			}
			if rest > 0 {
				init[empty] += rest
			}
			return init
		},
		Layout: func() []uint64 {
			layout := make([]uint64, n)
			for i := range layout {
				layout[i] = empty
			}
			if excludeLeader {
				layout[0] = leader
			}
			layout[1] = loaded
			return layout
		},
		Delta: func(qu, qv uint64, _ *rng.Rand) (uint64, uint64) {
			if qu&powersLeaderBit != 0 || qv&powersLeaderBit != 0 {
				return qu, qv
			}
			ku, kv := decodePowersK(qu), decodePowersK(qv)
			PowerOfTwo(&ku, &kv)
			return encodePowers(ku, false), encodePowers(kv, false)
		},
		PureDelta: true,
		SelfLoop: func(qu, qv uint64) bool {
			if qu&powersLeaderBit != 0 || qv&powersLeaderBit != 0 {
				return true
			}
			ku, kv := decodePowersK(qu), decodePowersK(qv)
			return !(ku > 0 && kv == Empty) && !(ku == Empty && kv > 0)
		},
		Skip: true,
		Converged: func(v sim.ConfigView) bool {
			// Lemma 8's terminal condition: no logarithmic load above 0.
			ok := true
			v.ForEach(func(code uint64, _ int64) {
				if code&powersLeaderBit == 0 && decodePowersK(code) > 0 {
					ok = false
				}
			})
			return ok
		},
		Output: func(q uint64) int64 { return int64(decodePowersK(q)) },
	}
}

// NewClassicalSpec returns the canonical transition spec of classical
// load balancing ([BFKK19]) over the given initial loads (copied; all
// must be non-negative — the state code is the load itself). The
// occupied alphabet is the set of distinct loads, which collapses to at
// most two adjacent values as the discrepancy drops, and equal or
// adjacent-load pairs are configuration no-ops, so the spec opts into
// the skip path and the count engines.
func NewClassicalSpec(loads []int64) *sim.Spec {
	init := make(map[uint64]int64, len(loads))
	layout := make([]uint64, len(loads))
	for i, l := range loads {
		if l < 0 {
			panic("balance: negative load in classical spec")
		}
		init[uint64(l)]++
		layout[i] = uint64(l)
	}
	return &sim.Spec{
		Name: "classical",
		N:    len(loads),
		Init: func() map[uint64]int64 {
			out := make(map[uint64]int64, len(init))
			for c, n := range init {
				out[c] = n
			}
			return out
		},
		Layout: func() []uint64 { return append([]uint64(nil), layout...) },
		Delta: func(qu, qv uint64, _ *rng.Rand) (uint64, uint64) {
			lu, lv := int64(qu), int64(qv)
			Classical(&lu, &lv)
			return uint64(lu), uint64(lv)
		},
		PureDelta: true,
		SelfLoop: func(qu, qv uint64) bool {
			// Identity: equal loads, or the responder exactly one token
			// ahead (⌊·⌋ to the initiator keeps both in place). The
			// initiator one ahead is a swap — a configuration no-op the
			// batch planner nets away, but not an identity on agents.
			return qu == qv || qv == qu+1
		},
		Skip: true,
		Converged: func(v sim.ConfigView) bool {
			// Discrepancy at most 2, [BFKK19, Theorem 1]'s practical
			// terminal condition: reaching 1 exactly takes Θ(n²·…),
			// because the final surplus token performs a random walk.
			first := true
			var minL, maxL uint64
			v.ForEach(func(code uint64, _ int64) {
				if first {
					minL, maxL, first = code, code, false
					return
				}
				if code < minL {
					minL = code
				}
				if code > maxL {
					maxL = code
				}
			})
			return !first && maxL-minL <= 2
		},
		Output: func(q uint64) int64 { return int64(q) },
	}
}

// NewClassicalPointMassSpec is NewClassicalSpec for the point-mass
// start: agent 0 holds m tokens, everyone else none.
func NewClassicalPointMassSpec(n int, m int64) *sim.Spec {
	loads := make([]int64, n)
	loads[0] = m
	return NewClassicalSpec(loads)
}
