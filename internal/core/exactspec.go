package core

import (
	"popcount/internal/junta"
	"popcount/internal/rng"
	"popcount/internal/sim"
)

// canonExact canonicalizes one CountExact agent state for interning.
func canonExact(w exactAgent) exactAgent {
	w.clk = canonClock(w.clk)
	w.led = canonFastLed(w.led)
	return w
}

// exactStateOutput is the output function ω(v) = ⌊2^8·2^(2k)/ℓ⌉ on one
// decoded state: the agent's estimate of the exact population size (0
// while the agent has no multiplied load).
func exactStateOutput(w exactAgent) int64 {
	if !w.refMultiplied || w.l <= 0 {
		return 0
	}
	num := refC << uint(2*w.k)
	return (num + w.l/2) / w.l
}

// CountExactSpec couples protocol CountExact's transition spec with its
// state codec.
type CountExactSpec struct {
	*sim.Spec
	rule *exactRule
	in   *sim.Interner[exactAgent]
}

// NewCountExactSpec returns the canonical transition spec of the
// paper's protocol CountExact (Algorithm 3, Theorem 2) over cfg: a
// uniform protocol after which every agent outputs the exact population
// size n, stabilizing in O(n log n) interactions with Õ(n) states.
//
// Stage structure: Stage 1 elects a leader with FastLeaderElection
// (Lemma 7); Stage 2 (Approximation Stage, Algorithm 4) computes
// k = log n ± 3 by repeated load explosion and classical load balancing;
// Stage 3 (Refinement Stage, Algorithm 5) injects 2^8·2^k tokens,
// balances them, multiplies all loads by 2^k and balances again, after
// which every agent computes n exactly as ⌊2^8·2^(2k)/ℓ⌉.
//
// Unlike the building-block specs, the state space is not
// constant-size: classical loads make the alphabet Õ(n), so codes are
// interned over the occupied fragment. The count forms therefore scale
// with the number of distinct loads in flight — far beyond agent-array
// memory at equal n, but not to the n = 10⁹ of the skip-path protocols
// (see DESIGN.md).
func NewCountExactSpec(cfg Config) *CountExactSpec {
	rule := newExactRule(cfg)
	p := &CountExactSpec{rule: &rule, in: sim.NewInterner(hashExact)}
	initCode := p.in.Code(canonExact(rule.initAgent()))
	p.Spec = &sim.Spec{
		Name: "exact",
		N:    rule.cfg.N,
		Init: func() map[uint64]int64 {
			return map[uint64]int64{initCode: int64(rule.cfg.N)}
		},
		Delta: func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
			a, b := p.in.State(qu), p.in.State(qv)
			rule.stepPair(&a, &b, r)
			return p.in.Recode(canonExact(a), qu), p.in.Recode(canonExact(b), qv)
		},
		ShardDelta: func(k int) ([]func(qu, qv uint64, r *rng.Rand) (uint64, uint64), func() map[uint64]uint64) {
			g := sim.ShardViews(p.in, k)
			ds := make([]func(qu, qv uint64, r *rng.Rand) (uint64, uint64), k)
			for i := range ds {
				v := g.View(i)
				ds[i] = func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
					a, b := v.State(qu), v.State(qv)
					rule.stepPair(&a, &b, r)
					return v.Recode(canonExact(a), qu), v.Recode(canonExact(b), qv)
				}
			}
			return ds, g.Reconcile
		},
		Randomized: func(qu, qv uint64) bool {
			return rule.pairDrawsCoins(p.in.State(qu), p.in.State(qv))
		},
		Converged: func(v sim.ConfigView) bool {
			return p.converged(v)
		},
		Output: func(q uint64) int64 { return exactStateOutput(p.in.State(q)) },
		EncodeState: func(q uint64) []byte {
			return encodeExact(p.in.State(q))
		},
		DecodeState: func(b []byte) (uint64, error) {
			s, err := decodeExact(b)
			if err != nil {
				return 0, err
			}
			return p.in.Code(canonExact(s)), nil
		},
	}
	// Memoize the deterministic fragment on interned codes (see
	// sim.DeltaMemo). CountExact's load alphabet is Õ(n), but the
	// occupied front is narrow, so the memo's window answers most
	// repeats and re-resolves the rare evicted pair.
	p.Spec.MemoizeDelta()
	return p
}

// converged is the desired configuration of Theorem 2 on a
// configuration view: every occupied state has a multiplied positive
// load and all state outputs agree.
func (p *CountExactSpec) converged(v sim.ConfigView) bool {
	ok, first := true, true
	var want int64
	v.ForEach(func(code uint64, _ int64) {
		if !ok {
			return
		}
		s := p.in.State(code)
		if !s.refMultiplied || s.l <= 0 {
			ok = false
			return
		}
		out := exactStateOutput(s)
		if first {
			want, first = out, false
		} else if out != want {
			ok = false
		}
	})
	return ok && !first
}

// Metrics reports the observed variable ranges over a configuration
// view, for state accounting (Theorem 2: Õ(n) states — levels
// O(log log n), i O(1), k ≤ log n + 3, loads O(n²·2^O(1)); see Figure 3
// and the proof in Appendix F).
func (p *CountExactSpec) Metrics(v sim.ConfigView) StateMetrics {
	var m StateMetrics
	v.ForEach(func(code uint64, _ int64) {
		s := p.in.State(code)
		if l := int(s.jnt.Level); l > m.MaxLevel {
			m.MaxLevel = l
		}
		if k := int(s.k); k > m.MaxK {
			m.MaxK = k
		}
		if s.l > m.MaxLoad {
			m.MaxLoad = s.l
		}
	})
	return m
}

// States returns the number of distinct states interned so far.
func (p *CountExactSpec) States() int { return p.in.Len() }

// pairDrawsCoins reports whether an interaction of the pair (a, b)
// consumes synthetic coins. FastLeaderElection samples only when a
// still-contending, not-yet-done agent crosses a phase boundary into an
// even (sampling) phase — the predicate re-derives the boundary from a
// dry run of the deterministic prefix and is exact, not conservative:
// odd-phase boundaries and non-contenders draw nothing.
func (p *exactRule) pairDrawsCoins(a, b exactAgent) bool {
	preA, preB := a.jnt.Level, b.jnt.Level
	junta.Interact(&a.jnt, &b.jnt)
	if a.jnt.Level != preA {
		p.reinit(&a, &b, preB)
	}
	if b.jnt.Level != preB {
		p.reinit(&b, &a, preA)
	}
	p.clk.Tick(&a.clk, &b.clk, a.jnt.Junta, b.jnt.Junta)
	samples := func(w exactAgent) bool {
		return w.clk.FirstTick && !w.led.Done && w.led.IsLeader &&
			p.clk.PhaseIdx(w.clk)%2 == 0
	}
	return samples(a) || samples(b)
}
