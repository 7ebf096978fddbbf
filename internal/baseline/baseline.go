// Package baseline implements the comparison protocols referenced in the
// paper's introduction and related work, used by experiment E15.
//
// TokenBag (NewTokenBagSpec) is the "simple and uniform protocol for
// exact population counting" from Section 1: every agent starts with one
// token, agents keep combining the tokens into bags, propagating at the
// same time the maximum size of a bag and using that maximum as their
// current output. It completes in expected Θ(n²) interactions and uses
// Θ(n²) states (bag × maximum), the baseline CountExact improves on by a
// factor of ≈ n / log n.
//
// GeometricEstimate (NewGeometricSpec) is a uniform O(log n)-state
// estimator in the spirit of Alistarh et al. [1] (see Section 1.2):
// every agent samples a geometric random value on its first interaction
// (via synthetic coins) and the maximum spreads by epidemics. The
// maximum of n Geometric(1/2) samples is log₂ n + Θ(1) w.h.p., giving
// an estimate of the population size within a polynomial factor in
// O(n log n) interactions — much weaker than protocol Approximate's
// ⌊log n⌋/⌈log n⌉ guarantee, which experiment E15 quantifies.
//
// Both are transition specs, so all three engine forms derive from one
// rule. TokenBag's Θ(n²) alphabet is a bound, not what a run occupies:
// most agents hold an empty bag and the same maximum, so the count
// engines discover only a small fraction of it.
package baseline

import (
	"popcount/internal/rng"
	"popcount/internal/sim"
)

// A TokenBag state (bag, best) is packed as bag<<32 | best. Both fields
// are at most n, so the packing is exact for n < 2³², above the count
// engine's population bound and far above any agent array.
const tokenBagBest = 1<<32 - 1

func tokenBagCode(bag, best uint64) uint64 { return bag<<32 | best }

// tokenBagDelta merges the responder's bag into the initiator's when
// both hold tokens, then spreads the largest bag size either endpoint
// knows of to both. It draws no coins.
func tokenBagDelta(qu, qv uint64, _ *rng.Rand) (uint64, uint64) {
	bu, bv := qu>>32, qv>>32
	if bu > 0 && bv > 0 {
		bu, bv = bu+bv, 0
	}
	m := max(qu&tokenBagBest, qv&tokenBagBest, bu, bv)
	return tokenBagCode(bu, m), tokenBagCode(bv, m)
}

// NewTokenBagSpec returns the canonical transition spec of the TokenBag
// baseline over n agents, one token each. Its output is the largest bag
// an agent knows of, and it has converged once every agent knows of a
// bag of all n tokens.
func NewTokenBagSpec(n int) *sim.Spec {
	want := uint64(n)
	return &sim.Spec{
		Name: "tokenbag",
		N:    n,
		Init: func() map[uint64]int64 {
			return map[uint64]int64{tokenBagCode(1, 1): int64(n)}
		},
		Delta:     tokenBagDelta,
		PureDelta: true,
		Converged: func(v sim.ConfigView) bool {
			done := true
			v.ForEach(func(code uint64, _ int64) {
				if code&tokenBagBest != want {
					done = false
				}
			})
			return done
		},
		Output: func(q uint64) int64 { return int64(q & tokenBagBest) },
	}
}
