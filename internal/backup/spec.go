package backup

import (
	"popcount/internal/rng"
	"popcount/internal/sim"
)

// Approx spec state codes pack the (k, kmax) pair, each shifted by one
// so the empty marker −1 maps to 0: code = (k+1)·2⁷ + (kmax+1). Both
// variables stay below ⌊log n⌋ + 1 ≤ 63 (Lemma 12), so 7 bits each
// suffice and the packing is dense over the reachable fragment.
const approxKShift = 7

// EncodeApprox packs an approximate-backup agent state into its spec
// state code.
func EncodeApprox(s ApproxState) uint64 {
	return uint64(s.K+1)<<approxKShift | uint64(s.KMax+1)
}

// DecodeApprox unpacks a spec state code.
func DecodeApprox(c uint64) ApproxState {
	return ApproxState{
		K:    int16(c>>approxKShift) - 1,
		KMax: int16(c&((1<<approxKShift)-1)) - 1,
	}
}

// approxSelfLoop reports the certain no-ops of Equation (3): no merge
// (different or empty pile exponents) and nothing for the maximum
// broadcast to move.
func approxSelfLoop(u, v ApproxState) bool {
	if u.K == v.K && u.K >= 0 {
		return false
	}
	kmax := u.KMax
	for _, x := range []int16{v.KMax, u.K, v.K} {
		if x > kmax {
			kmax = x
		}
	}
	return u.KMax == kmax && v.KMax == kmax
}

// approxBinaryRep checks Lemma 12's pile condition over a configuration
// view: for each level i up to want, the number of agents holding 2^i
// tokens equals the i-th bit of n.
func approxBinaryRep(v sim.ConfigView, want int16, kOf func(code uint64) int16) bool {
	n := v.N()
	var counts [64]int64
	v.ForEach(func(code uint64, cnt int64) {
		if k := kOf(code); k >= 0 {
			counts[k] += cnt
		}
	})
	for i := int16(0); i <= want; i++ {
		if counts[i] != (n>>uint(i))&1 {
			return false
		}
	}
	return true
}

// NewApproxSpec returns the canonical transition spec of the
// approximate backup protocol (Appendix C.1, Equation (3)) over n
// agents. The alphabet is at most (log n + 1)² states and the
// equilibrium is no-op dominated — the count engine's skip path and the
// batch planner turn the protocol's Θ(n² log² n) interactions into
// roughly the number of merges — so the spec opts into both.
func NewApproxSpec(n int) *sim.Spec {
	return &sim.Spec{
		Name: "backup-approx",
		N:    n,
		Init: func() map[uint64]int64 {
			return map[uint64]int64{EncodeApprox(InitApprox()): int64(n)}
		},
		Delta: func(qu, qv uint64, _ *rng.Rand) (uint64, uint64) {
			su, sv := DecodeApprox(qu), DecodeApprox(qv)
			ApproxInteract(&su, &sv)
			return EncodeApprox(su), EncodeApprox(sv)
		},
		SelfLoop: func(qu, qv uint64) bool {
			return approxSelfLoop(DecodeApprox(qu), DecodeApprox(qv))
		},
		Skip:      true,
		PureDelta: true,
		Converged: func(v sim.ConfigView) bool {
			want := int16(log2Floor(int(v.N())))
			ok := true
			v.ForEach(func(code uint64, _ int64) {
				if DecodeApprox(code).KMax != want {
					ok = false
				}
			})
			return ok && approxBinaryRep(v, want, func(code uint64) int16 {
				return DecodeApprox(code).K
			})
		},
		Output: func(q uint64) int64 { return int64(DecodeApprox(q).KMax) },
	}
}

// NewSparseApproxSpec returns the canonical transition spec of the
// reduced-state approximate backup (Theorem 1.3): pile holders pin
// kmax to their own exponent, so each agent needs only O(log n) states.
func NewSparseApproxSpec(n int) *sim.Spec {
	return &sim.Spec{
		Name: "backup-approx-sparse",
		N:    n,
		Init: func() map[uint64]int64 {
			return map[uint64]int64{EncodeApprox(InitApprox()): int64(n)}
		},
		Delta: func(qu, qv uint64, _ *rng.Rand) (uint64, uint64) {
			su, sv := DecodeApprox(qu), DecodeApprox(qv)
			ApproxInteract(&su, &sv)
			if su.K >= 0 {
				su.KMax = su.K
			}
			if sv.K >= 0 {
				sv.KMax = sv.K
			}
			return EncodeApprox(su), EncodeApprox(sv)
		},
		Skip:      true,
		PureDelta: true,
		Converged: func(v sim.ConfigView) bool {
			// Theorem 1.3 allows the ≤ log n pile holders to disagree;
			// every empty agent must output ⌊log n⌋.
			want := int16(log2Floor(int(v.N())))
			ok := true
			v.ForEach(func(code uint64, _ int64) {
				s := DecodeApprox(code)
				if s.K < 0 && s.KMax != want {
					ok = false
				}
			})
			return ok && approxBinaryRep(v, want, func(code uint64) int16 {
				return DecodeApprox(code).K
			})
		},
		Output: func(q uint64) int64 { return int64(DecodeApprox(q).KMax) },
	}
}

// Exact spec state codes carry the token count in the high bits and the
// counted flag in the low bit. Counts reach at most n, so the packing
// is exact for every population the engines accept.
func encodeExact(s ExactState) uint64 {
	c := uint64(s.Count) << 1
	if s.Counted {
		c |= 1
	}
	return c
}

func decodeExact(c uint64) ExactState {
	return ExactState{Counted: c&1 != 0, Count: int64(c >> 1)}
}

// NewExactSpec returns the canonical transition spec of the exact
// backup protocol (Appendix C.2, Equation (4)) over n agents. The
// occupied alphabet at any instant is small — a handful of distinct
// merged counts — and the equilibrium is no-op dominated, so the spec
// opts into the skip path. Note the skip path's cost model: the merge
// chain DISCOVERS ~2n distinct count values over a run, and the
// engine's no-op adjacency is O(discovered²) to build, so the count
// forms pay a quadratic construction term past n ≈ 10⁵ (E18 records
// the practical range).
func NewExactSpec(n int) *sim.Spec {
	return &sim.Spec{
		Name: "backup-exact",
		N:    n,
		Init: func() map[uint64]int64 {
			return map[uint64]int64{encodeExact(InitExact()): int64(n)}
		},
		Delta: func(qu, qv uint64, _ *rng.Rand) (uint64, uint64) {
			su, sv := decodeExact(qu), decodeExact(qv)
			ExactInteract(&su, &sv)
			return encodeExact(su), encodeExact(sv)
		},
		PureDelta: true,
		SelfLoop: func(qu, qv uint64) bool {
			su, sv := decodeExact(qu), decodeExact(qv)
			if !su.Counted && !sv.Counted {
				return false // merge
			}
			m := su.Count
			if sv.Count > m {
				m = sv.Count
			}
			return (!su.Counted || su.Count == m) && (!sv.Counted || sv.Count == m)
		},
		Skip: true,
		Converged: func(v sim.ConfigView) bool {
			// Every agent outputs n: exactly one occupied state per
			// counted flag value at count n — i.e. all counts equal n.
			ok := true
			v.ForEach(func(code uint64, _ int64) {
				if decodeExact(code).Count != v.N() {
					ok = false
				}
			})
			return ok
		},
		Output: func(q uint64) int64 { return decodeExact(q).Count },
	}
}
