package core

import (
	"popcount/internal/junta"
	"popcount/internal/rng"
	"popcount/internal/sim"
)

// canonStableExact canonicalizes one StableCountExact agent state for
// interning (clock quotient plus the fast election's dead Phases
// counter; Val/Tag stay, see the package comment in spec.go).
func canonStableExact(w stableExactAgent) stableExactAgent {
	w.clk = canonClock(w.clk)
	w.led = canonFastLed(w.led)
	return w
}

// stableExactStateOutput is the state form of StableCountExact.Output.
func stableExactStateOutput(w stableExactAgent) int64 {
	if w.errFlag {
		return w.bk.Count
	}
	if !w.refMultiplied || w.l <= 0 {
		return 0
	}
	num := refC << uint(2*w.k)
	return (num + w.l/2) / w.l
}

// StableCountExactSpec couples the stable protocol's transition spec
// with its state codec.
type StableCountExactSpec struct {
	*sim.Spec
	rule *stableExactRule
	in   *sim.Interner[stableExactAgent]
}

// NewStableCountExactSpec returns the canonical transition spec of
// StableCountExact over cfg, derived from the same stepPair the
// agent-array form runs. faultInject corrupts the leader's k when the
// Approximation Stage concludes, forcing the error → backup path.
func NewStableCountExactSpec(cfg Config, faultInject bool) *StableCountExactSpec {
	rule := newStableExactRule(cfg)
	rule.FaultInjection = faultInject
	p := &StableCountExactSpec{rule: &rule, in: sim.NewInterner[stableExactAgent]()}
	initCode := p.in.Code(canonStableExact(rule.initAgent()))
	p.Spec = &sim.Spec{
		Name: "stable-exact",
		N:    rule.cfg.N,
		Init: func() map[uint64]int64 {
			return map[uint64]int64{initCode: int64(rule.cfg.N)}
		},
		Delta: func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
			a, b := p.in.State(qu), p.in.State(qv)
			rule.stepPair(&a, &b, r)
			return p.in.Recode(canonStableExact(a), qu), p.in.Recode(canonStableExact(b), qv)
		},
		ShardDelta: func(k int) ([]func(qu, qv uint64, r *rng.Rand) (uint64, uint64), func() map[uint64]uint64) {
			g := sim.ShardViews(p.in, k)
			ds := make([]func(qu, qv uint64, r *rng.Rand) (uint64, uint64), k)
			for i := range ds {
				v := g.View(i)
				ds[i] = func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
					a, b := v.State(qu), v.State(qv)
					rule.stepPair(&a, &b, r)
					return v.Recode(canonStableExact(a), qu), v.Recode(canonStableExact(b), qv)
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
		Output: func(q uint64) int64 { return stableExactStateOutput(p.in.State(q)) },
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
			return encodeStableExact(p.in.State(q))
		},
		DecodeState: func(b []byte) (uint64, error) {
			s, err := decodeStableExact(b)
			if err != nil {
				return 0, err
			}
			return p.in.Code(canonStableExact(s)), nil
		},
	}
	// Memoize the deterministic fragment on interned codes (see
	// sim.DeltaMemo); shard views bypass the memo by construction.
	p.Spec.MemoizeDelta()
	return p
}

// converged mirrors StableCountExact.Converged on a configuration view.
func (p *StableCountExactSpec) converged(v sim.ConfigView) bool {
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
	var want int64
	v.ForEach(func(code uint64, _ int64) {
		if !ok {
			return
		}
		s := p.in.State(code)
		if !s.frozen || !s.refMultiplied || s.l <= 0 {
			ok = false
			return
		}
		out := stableExactStateOutput(s)
		if out == 0 {
			ok = false
			return
		}
		if first {
			want, first = out, false
		} else if out != want {
			ok = false
		}
	})
	return ok && !first
}

// backupConverged mirrors Lemma 13's terminal condition over state
// multiplicities: every agent on the fresh backup instance, exactly one
// uncounted agent, and all counts equal to the maximum.
func (p *StableCountExactSpec) backupConverged(v sim.ConfigView) bool {
	ok := true
	var uncounted int64
	var want int64
	v.ForEach(func(code uint64, cnt int64) {
		if !ok {
			return
		}
		s := p.in.State(code)
		if !s.errFlag || s.bkInstance != 1 {
			ok = false
			return
		}
		if !s.bk.Counted {
			uncounted += cnt
		}
		if s.bk.Count > want {
			want = s.bk.Count
		}
	})
	if !ok || uncounted != 1 {
		return false
	}
	v.ForEach(func(code uint64, _ int64) {
		if p.in.State(code).bk.Count != want {
			ok = false
		}
	})
	return ok
}

// States returns the number of distinct states interned so far.
func (p *StableCountExactSpec) States() int { return p.in.Len() }

// pairDrawsCoins reports whether an interaction of the pair consumes
// synthetic coins: the fast election's even-boundary sampling condition
// after the deterministic prefix, with the stable variant's
// frozen-partner tick cases. Conservative only in ignoring the
// error-flag gate.
func (p *stableExactRule) pairDrawsCoins(a, b stableExactAgent) bool {
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
	samples := func(w stableExactAgent) bool {
		return w.clk.FirstTick && !w.led.Done && w.led.IsLeader &&
			p.clk.PhaseIdx(w.clk)%2 == 0
	}
	return samples(a) || samples(b)
}
