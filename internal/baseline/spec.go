package baseline

import (
	"popcount/internal/rng"
	"popcount/internal/sim"
)

// geoCap caps the geometric samples at 62 to bound the state space,
// like the classical formulation.
const geoCap = 62

// Geometric spec state codes: value g with an "activated" flag in the
// low bit. code = g<<1 is an agent whose pre-drawn sample is g but who
// has not interacted yet ("fresh"); code = g<<1|1 is an activated agent
// spreading its value. The flag ordering makes the max rule a plain
// code comparison among activated states.
func geoFresh(g int) uint64 { return uint64(g) << 1 }

// NewGeometricSpec returns the canonical transition spec of the
// GeometricEstimate baseline over n agents: every agent holds a
// Geometric(1/2) sample (capped at 62) that it reveals at its first
// interaction, and the maximum spreads by two-way epidemics; the
// maximum of n samples is log₂ n + Θ(1) w.h.p.
//
// Classically each agent draws its sample from synthetic coins at its
// first interaction — a Θ(n) randomized phase that defeats batching
// (one Delta call per agent, no transition matrix). The spec instead
// declares a one-shot initialization sampler: the whole population's
// draws are sampled at engine start as one multinomial over the
// geometric pmf, by O(log n) conditional binomials — the conditional
// success probability of each halving round is exactly 1/2, so round g
// splits the not-yet-resolved agents Binomial(·, ½) into "value g" and
// "keep flipping", which is precisely flipping every remaining agent's
// g-th coin at once. By the principle of deferred decisions the
// trajectory distribution is unchanged (a fresh agent's pending value
// is never read before its first interaction), but the per-interaction
// rule becomes deterministic and therefore fully batchable: the batched
// count engine amortizes the whole coin phase, where the classical form
// fell back to per-interaction stepping.
func NewGeometricSpec(n int) *sim.Spec {
	return &sim.Spec{
		Name: "geometric",
		N:    n,
		InitSample: func(pop int64, r *rng.Rand) map[uint64]int64 {
			init := make(map[uint64]int64, 2*sim.Log2Ceil(int(pop)))
			rem := pop
			for g := 0; g < geoCap && rem > 0; g++ {
				c := r.Binomial(rem, 0.5)
				if c > 0 {
					init[geoFresh(g)] = c
				}
				rem -= c
			}
			if rem > 0 {
				init[geoFresh(geoCap)] += rem
			}
			return init
		},
		Delta: func(qu, qv uint64, _ *rng.Rand) (uint64, uint64) {
			// Activate both endpoints, then spread the maximum two-way.
			au, av := qu|1, qv|1
			if au < av {
				return av, av
			}
			if av < au {
				return au, au
			}
			return au, av
		},
		SelfLoop: func(qu, qv uint64) bool {
			// Certainly inert: both activated with equal values. Pairs
			// involving a fresh agent always change state (activation).
			return qu == qv && qu&1 == 1
		},
		Skip:      true,
		PureDelta: true,
		Converged: func(v sim.ConfigView) bool {
			// All agents activated and agreeing on the maximum: exactly
			// one occupied state, and it is an activated one.
			states, activated := 0, true
			v.ForEach(func(code uint64, _ int64) {
				states++
				if code&1 == 0 {
					activated = false
				}
			})
			return activated && states == 1
		},
		Output: func(q uint64) int64 {
			// The log-estimate: sample + 1 once activated; 1 before (the
			// classical form zero-initializes unrevealed values).
			if q&1 == 0 {
				return 1
			}
			return int64(q>>1) + 1
		},
	}
}
