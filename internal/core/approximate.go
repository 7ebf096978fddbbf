package core

import (
	"popcount/internal/balance"
	"popcount/internal/clock"
	"popcount/internal/junta"
	"popcount/internal/leader"
	"popcount/internal/rng"
	"popcount/internal/sim"
)

// maxSearchK caps the search variable k (load exponents never approach it
// for physical populations; the cap only guards the representation).
const maxSearchK = 62

// approxAgent is the combined per-agent state of protocol Approximate
// (Figure 2): junta process, phase clock, leader election and Search
// Protocol sub-states.
type approxAgent struct {
	jnt        junta.State
	clk        clock.State
	led        leader.State
	k          int16
	searchDone bool
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
	interned[approxAgent]
	rule *approxRule
}

// NewApproximateSpec returns the canonical transition spec of the
// paper's protocol Approximate (Algorithm 2, Theorem 1.1) over cfg: a
// uniform protocol after which every agent outputs ⌊log₂ n⌋ or
// ⌈log₂ n⌉ w.h.p., converging in O(n log² n) interactions with
// O(log n · log log n) states. An agent's output is its k; 2^k is its
// population-size estimate.
//
// Stage structure per agent (tracked through the flags leaderDone and
// searchDone): Stage 1 elects a leader with the slow protocol of [GS18];
// Stage 2 runs the Search Protocol (Algorithm 1), in which the leader
// performs a linear search over k, injecting 2^k tokens per round and
// using powers-of-two load balancing to test whether 2^k exceeds ¾·n;
// Stage 3 broadcasts the leader's final k to every agent.
//
// The agent adapter (sim.NewSpecAgent) and the count forms run the
// same approxRule.stepPair, so every engine simulates one chain.
func NewApproximateSpec(cfg Config) *ApproximateSpec {
	rule := newApproxRule(cfg)
	p := &ApproximateSpec{rule: &rule}
	p.interned = newInterned(protocol[approxAgent]{
		name:      "approximate",
		n:         rule.cfg.N,
		hash:      hashApprox,
		init:      rule.initAgent(),
		canon:     canonApprox,
		step:      rule.step,
		output:    func(w approxAgent) int64 { return int64(w.k) },
		encode:    encodeApprox,
		decode:    decodeApprox,
		converged: p.converged,
	}, func(in *sim.Interner[approxAgent]) (deltaFunc, claimFunc) {
		delta := func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
			a, b := in.State(qu), in.State(qv)
			rule.stepPair(&a, &b, r)
			return in.Recode(canonApprox(a), qu), in.Recode(canonApprox(b), qv)
		}
		return delta, func(qu, qv uint64) bool { return rule.pairDrawsCoins(in.State(qu), in.State(qv)) }
	})
	return p
}

// converged is the desired configuration of Theorem 1.1 on a
// configuration view: every occupied state finished the search and
// agrees on a k ≥ 0.
func (p *ApproximateSpec) converged(v sim.ConfigView) bool {
	k, ok := p.agree(v, func(w approxAgent) (int64, bool) { return int64(w.k), w.searchDone })
	return ok && k >= 0
}

// Metrics reports the observed variable ranges over a configuration
// view, for state accounting (Theorem 1.1: O(log n · log log n) states
// — the only non-constant variables are the junta level and k; see
// Figure 2).
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

// approxRule is the n-independent part of protocol Approximate: the
// configuration and sub-protocol wiring that defines the pairwise
// transition rule. The transition spec (NewApproximateSpec) applies it
// to decoded state pairs, so every engine form runs this one rule.
type approxRule struct {
	cfg   Config
	clk   clock.Clock
	elect leader.Election
}

// newApproxRule wires the rule for cfg (with defaults applied).
func newApproxRule(cfg Config) approxRule {
	cfg = cfg.withDefaults()
	if cfg.N < 2 {
		panic("core: population must have at least 2 agents")
	}
	c := clock.New(cfg.ClockM)
	return approxRule{cfg: cfg, clk: c, elect: leader.NewElection(c, cfg.OuterM)}
}

// initAgent returns the initial per-agent state.
func (p *approxRule) initAgent() approxAgent {
	return approxAgent{
		jnt: junta.InitState(),
		clk: p.clk.Init(),
		led: p.elect.Init(),
		k:   -1,
	}
}

// stepPair applies one interaction of the rule to the pair (a, b) with
// initiator a.
func (p *approxRule) stepPair(a, b *approxAgent, r *rng.Rand) {
	// Lines 1–4: junta, re-initialization, phase clocks.
	p.prefix(a, b)

	// Line 5–6, Stage 1: leader election while not leaderDone.
	if !a.led.Done || !b.led.Done {
		p.elect.Interact(&a.led, &b.led, a.clk, b.clk, a.jnt.Junta, b.jnt.Junta, r)
	}

	// Line 7–8, Stage 2: the Search Protocol.
	p.searchStep(a, b)

	// Line 9–10, Stage 3: broadcasting stage — an agent that finished the
	// search infects its partner with (searchDone, k).
	if a.led.Done && a.searchDone && !b.searchDone {
		b.searchDone = true
		b.k = a.k
	} else if b.led.Done && b.searchDone && !a.searchDone {
		a.searchDone = true
		a.k = b.k
	}
}

// prefix applies the deterministic head of an interaction, which
// stepPair runs and pairDrawsCoins dry-runs.
func (p *approxRule) prefix(a, b *approxAgent) {
	p.climb(a, b)
	// Line 4: phase clocks.
	p.clk.Tick(&a.clk, &b.clk, a.jnt.Junta, b.jnt.Junta)
}

// climb runs the junta process (line 3) and re-initializes (lines 1–2)
// every agent whose level changed, reporting which did. The paper
// resets an agent's phase clock, leader election and Search Protocol
// state when it encounters a higher junta level; each junta level
// conceptually runs its own protocol instance, so an agent also starts
// from a clean state when it climbs to a new level itself ("all agents
// eventually run the phase clocks and the leader election process based
// on the junta on the highest level" — without resetting climbers, the
// top-level junta would carry clock state accumulated while everyone
// was still driving the clock, and leaderDone could fire prematurely).
func (p *approxRule) climb(a, b *approxAgent) (movedA, movedB bool) {
	preA, preB := a.jnt.Level, b.jnt.Level
	junta.Interact(&a.jnt, &b.jnt)
	movedA, movedB = a.jnt.Level != preA, b.jnt.Level != preB
	if movedA {
		p.reinit(a, b, preB)
	}
	if movedB {
		p.reinit(b, a, preA)
	}
	return movedA, movedB
}

// pairDrawsCoins reports whether an interaction of the pair (a, b)
// consumes synthetic coins: after the deterministic prefix, a
// still-contending, not-yet-done endpoint crossing a phase boundary
// draws its per-phase election coin. Conservative like the leader
// spec's predicate: a contender that the boundary would retire before
// drawing is still claimed.
func (p *approxRule) pairDrawsCoins(a, b approxAgent) bool {
	p.prefix(&a, &b)
	return slowDraws(&a) || slowDraws(&b)
}

// slowDraws reports whether w, after the prefix, draws the slow
// election's per-phase coin.
func slowDraws(w *approxAgent) bool { return w.clk.FirstTick && !w.led.Done && w.led.IsLeader }

// step is stepPair on values, for the spec's shard closures.
func (p *approxRule) step(a, b approxAgent, r *rng.Rand) (approxAgent, approxAgent) {
	p.stepPair(&a, &b, r)
	return a, b
}

// reinit re-initializes agent w's phase clock, leader election and Search
// Protocol state after w's junta level changed (Algorithm 2, line 2). If
// the partner q was already on w's new level (srcPreLevel ≥ new level),
// w's clock restarts synchronized to q's clock — q's level instance is
// the authority — rather than from zero, which avoids the transient
// desynchronization a cold reset would cause on the extended circular
// clock (see package clock). A climbing agent (first on its new level)
// starts from a fresh clock.
func (p *approxRule) reinit(w, q *approxAgent, qPreLevel uint8) {
	if qPreLevel >= w.jnt.Level {
		w.clk = q.clk
		w.clk.FirstTick = false
	} else {
		w.clk = p.clk.Init()
	}
	w.led = p.elect.Init()
	w.k = -1
	w.searchDone = false
}

// inSearch reports whether agent w currently executes the Search Protocol
// (Stage 2).
func (p *approxRule) inSearch(w *approxAgent) bool {
	return w.led.Done && !w.searchDone
}

// searchStep applies one interaction of the Search Protocol (Algorithm 1)
// with initiator a and responder b.
func (p *approxRule) searchStep(a, b *approxAgent) {
	p.searchBoundary(a)
	p.searchBoundary(b)
	p.searchLeaderActions(a, b)
	p.searchLeaderActions(b, a)

	// Follower rules (Algorithm 1, lines 9–16) apply when both agents
	// are non-leaders; balancing and epidemics are keyed on the
	// initiator's phase, as in the pseudo-code. Both endpoints must be
	// in the Search Stage — in particular an agent already in the
	// Broadcasting Stage carries the final answer in k, which must not
	// be mistaken for load.
	if !p.inSearch(a) || !p.inSearch(b) || a.led.IsLeader || b.led.IsLeader {
		return
	}
	switch p.clk.PhaseMod(a.clk, 5) {
	case 2: // powers-of-two load balancing
		balance.PowerOfTwo(&a.k, &b.k)
	case 3: // one-way epidemics of the maximum load exponent
		if a.k < b.k {
			a.k = b.k
		} else if b.k < a.k {
			b.k = a.k
		}
	}
}

// searchBoundary applies the Phase 0 initialization (Algorithm 1,
// lines 10–11) at the moment a non-leader enters phase 0. Resetting once
// at entry, rather than on every phase-0 interaction as the pseudo-code
// literally reads, avoids a token leak during the phase transition
// window: the leader performs its phase-1 injection at its own first
// tick, when the recipient may still be lingering in phase 0 — a
// per-interaction reset would then destroy the injected tokens, the
// round would silently fail, and the search would overshoot ⌈log n⌉.
func (p *approxRule) searchBoundary(w *approxAgent) {
	if !p.inSearch(w) || w.led.IsLeader || !w.clk.FirstTick {
		return
	}
	if p.clk.PhaseMod(w.clk, 5) == 0 {
		w.k = -1
	}
}

// searchLeaderActions applies the leader's Search Protocol rules
// (Algorithm 1, lines 1–8) for endpoint w with partner q.
func (p *approxRule) searchLeaderActions(w, q *approxAgent) {
	if !w.led.IsLeader || !p.inSearch(w) || !w.clk.FirstTick {
		return
	}
	switch p.clk.PhaseMod(w.clk, 5) {
	case 1: // load infusion: transfer 2^k tokens to the partner
		if !q.led.IsLeader && p.inSearch(q) {
			q.k = w.k
		}
	case 4: // decision
		if q.k <= 0 {
			if w.k < maxSearchK {
				w.k++
			}
		} else {
			w.searchDone = true
		}
	}
}
