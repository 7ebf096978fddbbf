// Transition specs for the paper's composed counting protocols.
//
// The four headline protocols — Approximate, CountExact and their
// stable hybrids — are products of sub-protocols: a junta triplet, an
// extended phase-clock value, an election record and the counting
// variables. The spec constructors here derive a sim.Spec from exactly
// the same rule code the agent-array forms run (the *Rule stepPair
// methods), so the spec is not a re-implementation but a re-packaging:
// decode the two state codes, apply stepPair, re-encode.
//
// State codes are interned (sim.Interner) rather than bit-packed: the
// product domain does not fit a fixed-width encoding (classical loads
// and sampled election values are unbounded-width), but the set of
// states a trajectory actually occupies stays small — agents
// synchronize — so first-sight dense codes keep the count engines'
// alphabet compact.
//
// Before interning, each state is canonicalized: fields that can never
// influence any future transition or output are zeroed, which quotients
// away state distinctions the count view would otherwise pay for.
// Every canonicalization below is a bisimulation — the zeroed field is
// provably never read before it is overwritten — and each carries the
// argument in a comment. Two are load-bearing for scale: the absolute
// phase counter (monotone, never read by the composed protocols; kept
// it would make every state unique per phase) and the slow election
// record of leaderDone agents (the outer clock keeps rotating after
// Done; kept it would multiply the occupied alphabet by the outer clock
// face). The fast election record is deliberately NOT canonicalized on
// Done: a frozen (Val, Tag) pair still retires same-tag contenders in
// their final pre-Done interaction, so zeroing it would change which
// duplicate leaders survive.
package core

import (
	"popcount/internal/clock"
	"popcount/internal/junta"
	"popcount/internal/leader"
	"popcount/internal/rng"
	"popcount/internal/sim"
)

// canonClock quotients the clock state: the absolute phase counter is
// instrumentation (the composed protocols read only Val-derived phase
// indices and the per-interaction FirstTick), and FirstTick itself is
// written by the tick at the head of every interaction before any rule
// reads it — frozen agents skip the tick but also every FirstTick
// consumer — so neither survives into the stored state.
func canonClock(c clock.State) clock.State {
	c.Phase = 0
	c.FirstTick = false
	return c
}

// canonSlowLed quotients the slow election record. The outer clock's
// FirstTick and absolute phase are never read (only Phase ≥ 1, which
// immediately and permanently sets Done in the same interaction, so a
// stored not-Done agent always has outer phase 0). Once Done the whole
// record except (IsLeader, Done) is dead: boundary is skipped, SeenMax/
// Bit/Tag are only ever *adopted from* a Done agent by a partner that
// the Done-epidemic makes Done in that same interaction (after which
// its own record is dead too), and the outer value a Done agent
// contributes to a partner's outer tick is likewise only read by
// partners that end the interaction Done.
func canonSlowLed(s leader.State) leader.State {
	s.Outer.FirstTick = false
	s.Outer.Phase = 0
	if s.Done {
		s.Bit, s.SeenMax, s.Tag = 0, 0, 0
		s.Outer = clock.State{}
	}
	return s
}

// canonFastLed quotients the fast election record: only the saturating
// phase counter of Done agents is dead (fastBoundary, its sole reader,
// is skipped once Done). Val and Tag stay — see the package comment.
func canonFastLed(s leader.FastState) leader.FastState {
	if s.Done {
		s.Phases = 0
	}
	return s
}

// canonApprox canonicalizes one Approximate agent state for interning.
func canonApprox(w approxAgent) approxAgent {
	w.clk = canonClock(w.clk)
	w.led = canonSlowLed(w.led)
	return w
}

// ApproximateSpec couples protocol Approximate's transition spec with
// its state codec, so configuration-level consumers (experiments,
// tests) can decode what the engines report.
type ApproximateSpec struct {
	*sim.Spec
	rule *approxRule
	in   *sim.Interner[approxAgent]
}

// NewApproximateSpec returns the canonical transition spec of protocol
// Approximate over cfg. The spec's Delta applies the same stepPair the
// agent-array form runs, so the derived agent adapter is bit-for-bit
// the hand-written protocol (pinned by the conformance suite) and the
// count forms simulate the same chain on the configuration.
func NewApproximateSpec(cfg Config) *ApproximateSpec {
	rule := newApproxRule(cfg)
	p := &ApproximateSpec{rule: &rule, in: sim.NewInterner[approxAgent]()}
	initCode := p.in.Code(canonApprox(rule.initAgent()))
	p.Spec = &sim.Spec{
		Name: "approximate",
		N:    cfg.withDefaults().N,
		Init: func() map[uint64]int64 {
			return map[uint64]int64{initCode: int64(rule.cfg.N)}
		},
		Delta: func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
			a, b := p.in.State(qu), p.in.State(qv)
			rule.stepPair(&a, &b, r)
			return p.in.Recode(canonApprox(a), qu), p.in.Recode(canonApprox(b), qv)
		},
		ShardDelta: func(k int) ([]func(qu, qv uint64, r *rng.Rand) (uint64, uint64), func() map[uint64]uint64) {
			g := sim.ShardViews(p.in, k)
			ds := make([]func(qu, qv uint64, r *rng.Rand) (uint64, uint64), k)
			for i := range ds {
				v := g.View(i)
				ds[i] = func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
					a, b := v.State(qu), v.State(qv)
					rule.stepPair(&a, &b, r)
					return v.Recode(canonApprox(a), qu), v.Recode(canonApprox(b), qv)
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
		Output: func(q uint64) int64 { return int64(p.in.State(q).k) },
		EncodeState: func(q uint64) []byte {
			return encodeApprox(p.in.State(q))
		},
		DecodeState: func(b []byte) (uint64, error) {
			s, err := decodeApprox(b)
			if err != nil {
				return 0, err
			}
			return p.in.Code(canonApprox(s)), nil
		},
	}
	// Each code pair decodes, steps and re-interns exactly once; repeats
	// are pure code-space lookups. Shard views bypass the memo (their
	// provisional codes carry the tag bit), so the closures above stay
	// the parallel path.
	p.Spec.MemoizeDelta()
	return p
}

// converged mirrors Approximate.Converged on a configuration view:
// every occupied state finished the search and agrees on a k ≥ 0.
func (p *ApproximateSpec) converged(v sim.ConfigView) bool {
	ok, first := true, true
	var k int16
	v.ForEach(func(code uint64, _ int64) {
		if !ok {
			return
		}
		s := p.in.State(code)
		if !s.searchDone {
			ok = false
			return
		}
		if first {
			k, first = s.k, false
		} else if s.k != k {
			ok = false
		}
	})
	return ok && !first && k >= 0
}

// Metrics reports the observed variable ranges over a configuration
// view (the configuration-level analogue of Approximate.Metrics).
func (p *ApproximateSpec) Metrics(v sim.ConfigView) StateMetrics {
	var m StateMetrics
	v.ForEach(func(code uint64, _ int64) {
		s := p.in.State(code)
		if l := int(s.jnt.Level); l > m.MaxLevel {
			m.MaxLevel = l
		}
		if k := int(s.k); k > m.MaxK {
			m.MaxK = k
		}
	})
	return m
}

// States returns the number of distinct states interned so far — the
// reachable alphabet fragment the engines discovered.
func (p *ApproximateSpec) States() int { return p.in.Len() }

// pairDrawsCoins reports whether an interaction of the pair (a, b)
// consumes synthetic coins: after the deterministic prefix (junta,
// re-initialization, clock tick), a still-contending, not-yet-done
// endpoint crossing a phase boundary draws its per-phase election coin.
// Conservative like the leader spec's predicate: a contender that the
// boundary would retire before drawing is still claimed.
func (p *approxRule) pairDrawsCoins(a, b approxAgent) bool {
	preA, preB := a.jnt.Level, b.jnt.Level
	junta.Interact(&a.jnt, &b.jnt)
	if a.jnt.Level != preA {
		p.reinit(&a, &b, preB)
	}
	if b.jnt.Level != preB {
		p.reinit(&b, &a, preA)
	}
	p.clk.Tick(&a.clk, &b.clk, a.jnt.Junta, b.jnt.Junta)
	return (a.clk.FirstTick && !a.led.Done && a.led.IsLeader) ||
		(b.clk.FirstTick && !b.led.Done && b.led.IsLeader)
}
