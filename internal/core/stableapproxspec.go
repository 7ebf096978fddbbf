package core

import (
	"popcount/internal/junta"
	"popcount/internal/rng"
	"popcount/internal/sim"
)

// canonStableApprox canonicalizes one StableApproximate agent state for
// interning. The slow-election quotient of canonSlowLed carries over
// unchanged: the stable variant reads the election record in exactly
// the same places (plus the two-leaders check, which uses only the kept
// IsLeader/Done fields), and frozen agents are always Done.
func canonStableApprox(w stableAgent) stableAgent {
	w.clk = canonClock(w.clk)
	w.led = canonSlowLed(w.led)
	return w
}

// StableApproximateSpec couples the stable protocol's transition spec
// with its state codec.
type StableApproximateSpec struct {
	*sim.Spec
	rule *stableApproxRule
	in   *sim.Interner[stableAgent]
}

// NewStableApproximateSpec returns the canonical transition spec of
// StableApproximate, the stable (always correct) hybrid variant of
// protocol Approximate (Theorem 1.2, Section 3.4 and Appendices B–C),
// over cfg.
//
// It runs protocol Approximate, replacing the Broadcasting Stage with the
// ErrorDetection protocol (Algorithm 7): the leader re-injects 2^(k−2)
// tokens, powers-of-two balancing spreads them, every agent converts its
// share into 32 classical tokens, classical balancing spreads those, and
// the leader recomputes k = ⌊k + 3 − log ℓ⌉ from its own balanced load.
// Any inconsistency — unbalanced piles, too-small loads, discrepancy
// above 2, phase desynchronization, or two leaders meeting — raises an
// error flag that spreads by one-way epidemics and switches every agent
// to a fresh instance of the slow backup protocol, which computes
// ⌊log n⌋ with probability 1. An agent's output is the backup
// instance's result after an error, otherwise the fast path's k.
//
// faultInject corrupts the leader's k when the search concludes (the
// rule's FaultInjection knob), forcing the error-detection → backup
// path.
func NewStableApproximateSpec(cfg Config, faultInject bool) *StableApproximateSpec {
	rule := newStableApproxRule(cfg)
	rule.FaultInjection = faultInject
	p := &StableApproximateSpec{rule: &rule, in: sim.NewInterner(hashStableApprox)}
	initCode := p.in.Code(canonStableApprox(rule.initAgent()))
	p.Spec = &sim.Spec{
		Name: "stable-approximate",
		N:    rule.cfg.N,
		Init: func() map[uint64]int64 {
			return map[uint64]int64{initCode: int64(rule.cfg.N)}
		},
		Delta: func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
			a, b := p.in.State(qu), p.in.State(qv)
			rule.stepPair(&a, &b, r)
			return p.in.Recode(canonStableApprox(a), qu), p.in.Recode(canonStableApprox(b), qv)
		},
		ShardDelta: func(k int) ([]func(qu, qv uint64, r *rng.Rand) (uint64, uint64), func() map[uint64]uint64) {
			g := sim.ShardViews(p.in, k)
			ds := make([]func(qu, qv uint64, r *rng.Rand) (uint64, uint64), k)
			for i := range ds {
				v := g.View(i)
				ds[i] = func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
					a, b := v.State(qu), v.State(qv)
					rule.stepPair(&a, &b, r)
					return v.Recode(canonStableApprox(a), qu), v.Recode(canonStableApprox(b), qv)
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
		Output: func(q uint64) int64 {
			s := p.in.State(q)
			if s.errFlag {
				return int64(s.bk.KMax)
			}
			return int64(s.k)
		},
		Errored: func(v sim.ConfigView) bool {
			any := false
			v.ForEach(func(code uint64, _ int64) {
				if p.in.State(code).errFlag {
					any = true
				}
			})
			return any
		},
		EncodeState: func(q uint64) []byte {
			return encodeStableApprox(p.in.State(q))
		},
		DecodeState: func(b []byte) (uint64, error) {
			s, err := decodeStableApprox(b)
			if err != nil {
				return 0, err
			}
			return p.in.Code(canonStableApprox(s)), nil
		},
	}
	// Memoize the deterministic fragment on interned codes (see
	// sim.DeltaMemo); shard views bypass the memo by construction.
	p.Spec.MemoizeDelta()
	return p
}

// converged reports whether the population has stabilized on a common
// output, on a configuration view: either every occupied state is
// frozen in phase′ 4 with one common k ≥ 0 and no error, or every state
// runs the fresh backup instance and the backup has reached Lemma 12's
// terminal configuration.
func (p *StableApproximateSpec) converged(v sim.ConfigView) bool {
	anyErr := false
	v.ForEach(func(code uint64, _ int64) {
		if p.in.State(code).errFlag {
			anyErr = true
		}
	})
	if anyErr {
		return p.backupConverged(v)
	}
	ok, first := true, true
	var k int16
	v.ForEach(func(code uint64, _ int64) {
		if !ok {
			return
		}
		s := p.in.State(code)
		if !s.frozen || s.k < 0 {
			ok = false
			return
		}
		if first {
			k, first = s.k, false
		} else if s.k != k {
			ok = false
		}
	})
	return ok && !first
}

// backupConverged is Lemma 12's terminal condition on the fresh backup
// instance, over state multiplicities: the pile exponents form
// the binary representation of n and every agent's kmax is ⌊log n⌋.
func (p *StableApproximateSpec) backupConverged(v sim.ConfigView) bool {
	n := p.rule.cfg.N
	var counts [64]int64
	want := int16(sim.Log2Floor(n))
	ok := true
	v.ForEach(func(code uint64, cnt int64) {
		if !ok {
			return
		}
		s := p.in.State(code)
		if !s.errFlag || s.bkInstance != 1 || s.bk.KMax != want {
			ok = false
			return
		}
		if s.bk.K >= 0 {
			counts[s.bk.K] += cnt
		}
	})
	if !ok {
		return false
	}
	for i := 0; i <= int(want); i++ {
		if counts[i] != int64((n>>uint(i))&1) {
			return false
		}
	}
	return true
}

// States returns the number of distinct states interned so far.
func (p *StableApproximateSpec) States() int { return p.in.Len() }

// pairDrawsCoins reports whether an interaction of the pair consumes
// synthetic coins, by dry-running the deterministic prefix (junta,
// re-initialization, clock tick with the frozen-partner cases) and
// checking the slow election's boundary-draw condition. Conservative:
// it ignores the error-flag gate (a both-errored pair skips the
// election entirely) and pre-retirement contenders, claiming both.
func (p *stableApproxRule) pairDrawsCoins(a, b stableAgent) bool {
	preA, preB := a.jnt.Level, b.jnt.Level
	junta.Interact(&a.jnt, &b.jnt)
	if a.jnt.Level != preA {
		p.reinit(&a, &b, preB)
	}
	if b.jnt.Level != preB {
		p.reinit(&b, &a, preA)
	}
	switch {
	case !a.frozen && !b.frozen:
		p.clk.Tick(&a.clk, &b.clk, a.jnt.Junta, b.jnt.Junta)
	case a.frozen && !b.frozen:
		p.clk.TickOne(&b.clk, a.clk.Val, b.jnt.Junta)
	case !a.frozen && b.frozen:
		p.clk.TickOne(&a.clk, b.clk.Val, a.jnt.Junta)
	}
	return (a.clk.FirstTick && !a.led.Done && a.led.IsLeader) ||
		(b.clk.FirstTick && !b.led.Done && b.led.IsLeader)
}
