package core

import (
	"popcount/internal/balance"
	"popcount/internal/clock"
	"popcount/internal/junta"
	"popcount/internal/leader"
	"popcount/internal/rng"
)

// refC is the constant factor 2^8 with which the Refinement Stage
// over-provisions its load injection (Algorithm 5, line 5).
const refC = int64(1) << 8

// exactAgent is the combined per-agent state of protocol CountExact
// (Figure 3).
type exactAgent struct {
	jnt junta.State
	clk clock.State
	led leader.FastState

	// Approximation Stage (Algorithm 4).
	i       int32 // phase counter iu
	k       int32 // log-estimate ku
	l       int64 // load lu
	apxDone bool

	// Refinement Stage (Algorithm 5) bookkeeping.
	refAnchor     uint8 // synchronized phase index at which the stage began
	refEntered    bool
	refInjected   bool // leader only: 2^8·2^k injected
	refMultiplied bool // this agent multiplied its load by 2^k
	overflow      bool // a load multiplication would have overflowed int64
}

// exactRule is the n-independent part of protocol CountExact: the
// configuration and sub-protocol wiring that defines the pairwise
// transition rule, which the transition spec (NewCountExactSpec)
// applies to decoded state pairs.
type exactRule struct {
	cfg   Config
	clk   clock.Clock
	elect leader.FastElection
}

// newExactRule wires the rule for cfg (with defaults applied).
func newExactRule(cfg Config) exactRule {
	cfg = cfg.withDefaults()
	if cfg.N < 2 {
		panic("core: population must have at least 2 agents")
	}
	c := clock.New(cfg.ClockM)
	return exactRule{cfg: cfg, clk: c, elect: leader.NewFastElection(c, cfg.FastRounds)}
}

// initAgent returns the initial per-agent state.
func (p *exactRule) initAgent() exactAgent {
	return exactAgent{
		jnt: junta.InitState(),
		clk: p.clk.Init(),
		led: p.elect.Init(),
	}
}

// injectExp returns the per-phase load-explosion exponent e for an agent
// on the given junta level: the phase multiplier is 2^e ≈ n^η. This is
// the paper's 2^(level−8) rescaled by Config.Shift (see DESIGN.md).
func injectExp(level uint8, shift int) int32 {
	e := int32(1) << level >> uint(shift)
	if e < 1 {
		e = 1
	}
	if e > 16 {
		e = 16
	}
	return e
}

// stepPair applies one interaction of the rule to the pair (a, b) with
// initiator a.
func (p *exactRule) stepPair(a, b *exactAgent, r *rng.Rand) {
	// Line 3: junta process, with re-initialization (line 1–2) of every
	// agent whose level changed — see the corresponding comment in
	// approxRule.stepPair for why climbers reset too.
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

	// Line 5–6, Stage 1: FastLeaderElection while not leaderDone.
	if !a.led.Done || !b.led.Done {
		p.elect.Interact(&a.led, &b.led, a.clk, b.clk, a.jnt.Level, b.jnt.Level, r)
	}

	// Line 7–8, Stage 2: Approximation Stage.
	p.apxStep(a, b)

	// Line 9–10, Stage 3: Refinement Stage.
	p.refineStep(a, b)
}

func (p *exactRule) reinit(w, q *exactAgent, qPreLevel uint8) {
	if qPreLevel >= w.jnt.Level {
		w.clk = q.clk
		w.clk.FirstTick = false
	} else {
		w.clk = p.clk.Init()
	}
	w.led = p.elect.Init()
	w.i, w.k, w.l = 0, 0, 0
	w.apxDone = false
	w.refAnchor, w.refEntered, w.refInjected, w.refMultiplied = 0, false, false, false
}

// inApx reports whether agent w currently executes the Approximation
// Stage.
func (p *exactRule) inApx(w *exactAgent) bool { return w.led.Done && !w.apxDone }

// apxStep applies one interaction of the Approximation Stage
// (Algorithm 4) to the pair (a, b).
func (p *exactRule) apxStep(a, b *exactAgent) {
	p.apxBoundary(a)
	p.apxBoundary(b)

	// Line 8: classical load balancing, between agents of the stage.
	if p.inApx(a) && p.inApx(b) {
		balance.Classical(&a.l, &b.l)
	}

	// Line 9: ApxDone spreads by one-way epidemics; the synchronized
	// refinement anchor travels with it so that every agent runs the
	// Refinement Stage on the leader's schedule.
	if a.apxDone && p.inApx(b) {
		p.enterRefinement(b, a.refAnchor)
	} else if b.apxDone && p.inApx(a) {
		p.enterRefinement(a, b.refAnchor)
	}
}

// apxBoundary applies the Approximation Stage's first-tick rules
// (Algorithm 4, lines 1–7) to one endpoint.
func (p *exactRule) apxBoundary(w *exactAgent) {
	if !p.inApx(w) || !w.clk.FirstTick {
		return
	}
	e := injectExp(w.jnt.Level, p.cfg.Shift)
	if w.led.IsLeader && w.i == 0 {
		// Line 2–3: the leader seeds the very first phase with one token.
		w.l = 1
	}
	if w.led.IsLeader && w.l >= 4 && w.i > 0 {
		// Line 4–6: the total load reached ≥ 2n w.h.p.; conclude with
		// k = i·e − ⌊log ℓ⌋ ( = log of total load minus log of the
		// per-agent share, i.e. ≈ log n).
		k := w.i*e - int32(log2Floor64(w.l))
		if k < 0 {
			k = 0
		}
		w.k = k
		p.enterRefinement(w, p.clk.PhaseIdx(w.clk))
		return
	}
	// Line 7: load explosion — every agent multiplies its load by 2^e.
	w.i++
	if w.l > 0 {
		if w.l > int64(1)<<(62-uint(e)) {
			w.overflow = true
		} else {
			w.l <<= uint(e)
		}
	}
}

// enterRefinement moves agent w into the Refinement Stage with the given
// synchronized anchor phase (the phase in which the leader raised
// ApxDone). The load is cleared exactly once, on entry — this realizes
// Algorithm 5's phase-0 initialization without the token-leak hazard of
// re-zeroing during the phase transition window.
func (p *exactRule) enterRefinement(w *exactAgent, anchor uint8) {
	w.apxDone = true
	if w.refEntered {
		return
	}
	w.refEntered = true
	w.refAnchor = anchor
	w.l = 0
	if w.k < 0 {
		w.k = 0
	}
}

// inRef reports whether agent w currently executes the Refinement Stage.
func (p *exactRule) inRef(w *exactAgent) bool { return w.led.Done && w.apxDone }

// refineStep applies one interaction of the Refinement Stage
// (Algorithm 5) to the pair (a, b).
func (p *exactRule) refineStep(a, b *exactAgent) {
	p.refBoundary(a)
	p.refBoundary(b)
	if !p.inRef(a) || !p.inRef(b) {
		return
	}

	// Phase 0 rule (line 1–2): broadcast the leader's k. (Running the
	// maximum broadcast throughout the stage is harmless — k only grows
	// to the leader's value — and tolerant of phase-boundary windows.)
	if a.k < b.k {
		a.k = b.k
	} else if b.k < a.k {
		b.k = a.k
	}

	// Line 8: classical load balancing — only between agents whose loads
	// live in the same unit ("multiplied by 2^k" or not). Mixing across
	// the multiplication boundary would let tokens miss the
	// multiplication and break exactness (Lemma 11 needs the total to be
	// exactly 2^8·2^2k).
	if a.refMultiplied == b.refMultiplied {
		balance.Classical(&a.l, &b.l)
	}
}

// refBoundary applies the Refinement Stage's first-tick rules
// (Algorithm 5, lines 3–7) to one endpoint.
func (p *exactRule) refBoundary(w *exactAgent) {
	if !p.inRef(w) || !w.clk.FirstTick {
		return
	}
	switch p.clk.PhasesSince(w.clk, w.refAnchor) {
	case 1:
		// Line 4–5: the leader injects 2^8 · 2^k tokens.
		if w.led.IsLeader && !w.refInjected {
			w.refInjected = true
			w.l = refC << uint(w.k)
		}
	case 2:
		// Line 6–7: every agent multiplies its load by 2^k.
		if !w.refMultiplied {
			w.refMultiplied = true
			if w.l > 0 && w.k > 0 {
				if w.l > int64(1)<<(62-uint(w.k)) {
					w.overflow = true
				} else {
					w.l <<= uint(w.k)
				}
			}
		}
	}
}

// log2Floor64 returns ⌊log₂ x⌋ for x ≥ 1.
func log2Floor64(x int64) int {
	k := -1
	for ; x > 0; x >>= 1 {
		k++
	}
	return k
}
