package core

import (
	"popcount/internal/balance"
	"popcount/internal/clock"
	"popcount/internal/junta"
	"popcount/internal/leader"
	"popcount/internal/rng"
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
	// Line 3: junta process, with re-initialization (line 1–2) of every
	// agent whose level changed. The paper resets an agent's phase clock,
	// leader election and Search Protocol state when it encounters a
	// higher junta level; each junta level conceptually runs its own
	// protocol instance, so an agent also starts from a clean state when
	// it climbs to a new level itself ("all agents eventually run the
	// phase clocks and the leader election process based on the junta on
	// the highest level" — without resetting climbers, the top-level
	// junta would carry clock state accumulated while everyone was still
	// driving the clock, and leaderDone could fire prematurely).
	preA, preB := a.jnt.Level, b.jnt.Level
	junta.Interact(&a.jnt, &b.jnt)
	if a.jnt.Level != preA {
		p.reinit(a, b, preB)
	}
	if b.jnt.Level != preB {
		p.reinit(b, a, preA)
	}

	// Line 4: phase clocks.
	p.clk.Tick(&a.clk, &b.clk, a.jnt.Junta, b.jnt.Junta)

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
