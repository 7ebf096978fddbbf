package core

import (
	"math"

	"popcount/internal/backup"
	"popcount/internal/balance"
	"popcount/internal/clock"
	"popcount/internal/rng"
	"popcount/internal/sim"
)

// edTokens is the constant 32 with which the Error Detection protocol
// over-compensates its load initialization (Algorithm 7, line 12).
const edTokens = 32

// stableAgent is the per-agent state of the stable protocol
// StableApproximate: the fast path of Approximate, the Error Detection
// protocol of Algorithm 7, and the backup protocol of Appendix C.1.
type stableAgent struct {
	approxAgent

	// Error Detection (Algorithm 7).
	edAnchor uint8 // synchronized phase at which error detection began
	edPhase  uint8 // phase′ ∈ {0,…,4}, stops at 4
	l        int16 // error-detection load ∈ [0, 32]
	frozen   bool  // clock stopped (phase′ 4 reached)
	errFlag  bool

	// Backup protocol (Appendix C.1). Instance 0 runs from the start
	// until leaderDone; instance 1 is a fresh instance started when the
	// error flag is raised. Piles merge only within the same instance.
	bk         backup.ApproxState
	bkInstance uint8
}

// canonStableApprox canonicalizes one StableApproximate agent state for
// interning. The slow-election quotient of canonSlowLed carries over
// unchanged: the stable variant reads the election record in exactly
// the same places (plus the two-leaders check, which uses only the kept
// IsLeader/Done fields), and frozen agents are always Done.
func canonStableApprox(w stableAgent) stableAgent {
	w.approxAgent = canonApprox(w.approxAgent)
	return w
}

// StableApproximateSpec couples the stable protocol's transition spec
// with its state codec.
type StableApproximateSpec struct {
	interned[stableAgent]
	rule *stableApproxRule
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
	rule := stableApproxRule{approxRule: newApproxRule(cfg), FaultInjection: faultInject}
	p := &StableApproximateSpec{rule: &rule}
	p.interned = newInterned(protocol[stableAgent]{
		name:  "stable-approximate",
		n:     rule.cfg.N,
		hash:  hashStableApprox,
		init:  rule.initAgent(),
		canon: canonStableApprox,
		step:  rule.step,
		output: func(w stableAgent) int64 {
			if w.errFlag {
				return int64(w.bk.KMax)
			}
			return int64(w.k)
		},
		errFlag:   func(w stableAgent) bool { return w.errFlag },
		encode:    encodeStableApprox,
		decode:    decodeStableApprox,
		converged: p.converged,
	}, func(in *sim.Interner[stableAgent]) (deltaFunc, claimFunc) {
		delta := func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
			a, b := in.State(qu), in.State(qv)
			rule.stepPair(&a, &b, r)
			return in.Recode(canonStableApprox(a), qu), in.Recode(canonStableApprox(b), qv)
		}
		return delta, func(qu, qv uint64) bool { return rule.pairDrawsCoins(in.State(qu), in.State(qv)) }
	})
	return p
}

// converged reports whether the population has stabilized on a common
// output, on a configuration view: either every occupied state is
// frozen in phase′ 4 with one common k ≥ 0 and no error, or every state
// runs the fresh backup instance and the backup has reached Lemma 12's
// terminal configuration.
func (p *StableApproximateSpec) converged(v sim.ConfigView) bool {
	if p.Errored(v) {
		return p.backupConverged(v)
	}
	_, ok := p.agree(v, func(w stableAgent) (int64, bool) { return int64(w.k), w.frozen && w.k >= 0 })
	return ok
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

// stableApproxRule is StableApproximate's rule: Approximate's wiring
// and stages, with Error Detection in place of the Broadcasting Stage
// and the backup protocol beside them.
type stableApproxRule struct {
	approxRule

	// FaultInjection corrupts the leader's k when the search concludes,
	// forcing the error-detection → backup path (experiment E9).
	FaultInjection bool
}

// initAgent returns the initial per-agent state.
func (p *stableApproxRule) initAgent() stableAgent {
	return stableAgent{approxAgent: p.approxRule.initAgent(), bk: backup.InitApprox()}
}

// stepPair applies one interaction of the rule to the pair (a, b) with
// initiator a.
func (p *stableApproxRule) stepPair(a, b *stableAgent, r *rng.Rand) {
	// Error flags spread by one-way epidemics; an agent switches to a
	// fresh backup instance the moment it learns of an error.
	if a.errFlag != b.errFlag {
		if a.errFlag {
			p.raise(b)
		} else {
			p.raise(a)
		}
	}

	// Backup protocol: instance 0 runs until leaderDone, instance 1
	// after an error. Piles merge only within one instance (Appendix B).
	if p.bkActive(a) && p.bkActive(b) && a.bkInstance == b.bkInstance {
		backup.ApproxInteract(&a.bk, &b.bk)
	}

	// Junta, re-initialization and phase clocks.
	p.prefix(a, b)

	// Two leaders that both concluded leader election meeting each other
	// is a detectable error (Appendix B).
	if a.led.IsLeader && b.led.IsLeader && a.led.Done && b.led.Done {
		p.raise(a)
		p.raise(b)
	}
	if a.errFlag && b.errFlag {
		return
	}

	// Stage 1: leader election.
	if !a.led.Done || !b.led.Done {
		p.elect.Interact(&a.led, &b.led, a.clk, b.clk, a.jnt.Junta, b.jnt.Junta, r)
	}

	// Stage 2: Approximate's Search Protocol, then the stable additions
	// for a leader that concluded it. This is the stable rule exactly:
	// the flags agree after the epidemic, and a both-errored pair has
	// returned, so neither endpoint is errored in the search step; and
	// of two Done leaders the check above has raised both, so the
	// partner of a concluding leader, which is not one, reads neither
	// its k nor its anchor later in the step.
	doneA, doneB := a.searchDone, b.searchDone
	p.searchStep(&a.approxAgent, &b.approxAgent)
	if a.searchDone != doneA {
		p.conclude(a)
	}
	if b.searchDone != doneB {
		p.conclude(b)
	}

	// Stage 3: Error Detection (replaces the Broadcasting Stage;
	// Algorithm 6).
	p.edStep(a, b)
}

// prefix applies the deterministic head of an interaction, which
// stepPair runs and pairDrawsCoins dry-runs: Approximate's junta
// process and re-initialization, which also clears the Error Detection
// state, then the phase clocks, where a frozen agent (phase′ 4) no
// longer ticks but its partner still reads its value (Algorithm 7,
// line 23).
func (p *stableApproxRule) prefix(a, b *stableAgent) {
	movedA, movedB := p.climb(&a.approxAgent, &b.approxAgent)
	if movedA {
		a.edAnchor, a.edPhase, a.l, a.frozen = 0, 0, 0, false
	}
	if movedB {
		b.edAnchor, b.edPhase, b.l, b.frozen = 0, 0, 0, false
	}
	tickUnfrozen(p.clk, &a.clk, &b.clk, a.frozen, b.frozen, a.jnt.Junta, b.jnt.Junta)
}

// tickUnfrozen ticks the phase clocks of a pair whose frozen endpoints
// no longer participate but still lend their clock value to an
// unfrozen partner.
func tickUnfrozen(c clock.Clock, a, b *clock.State, frozenA, frozenB, juntaA, juntaB bool) {
	switch {
	case !frozenA && !frozenB:
		c.Tick(a, b, juntaA, juntaB)
	case frozenA && !frozenB:
		c.TickOne(b, a.Val, juntaB)
	case !frozenA && frozenB:
		c.TickOne(a, b.Val, juntaA)
	}
}

// pairDrawsCoins reports whether an interaction of the pair consumes
// synthetic coins: the slow election's boundary-draw condition after
// the deterministic prefix. Conservative: it ignores the error-flag
// gate (a both-errored pair skips the election entirely) and
// pre-retirement contenders, claiming both.
func (p *stableApproxRule) pairDrawsCoins(a, b stableAgent) bool {
	p.prefix(&a, &b)
	return slowDraws(&a.approxAgent) || slowDraws(&b.approxAgent)
}

// step is stepPair on values, for the spec's shard closures.
func (p *stableApproxRule) step(a, b stableAgent, r *rng.Rand) (stableAgent, stableAgent) {
	p.stepPair(&a, &b, r)
	return a, b
}

// conclude applies the stable rule's additions to a leader's search
// decision: the fault corruption, if injected, and the Error Detection
// anchor.
func (p *stableApproxRule) conclude(w *stableAgent) {
	if p.FaultInjection {
		// Corrupt the result to exercise the error-detection → backup
		// path: claim a population sixteen times too small. (Smaller
		// corruptions are silently *corrected* by Algorithm 7's line
		// 19, which recomputes k from the balanced load — a feature,
		// covered by its own test.)
		w.k -= 4
		if w.k < 1 {
			w.k = 1
		}
	}
	// The leader anchors the Error Detection stage to the phase in which
	// it concluded the search; the anchor travels with the searchDone
	// infection.
	w.edAnchor = p.clk.PhaseIdx(w.clk)
	w.edPhase = 0
	w.l = 0
}

// raise sets the error flag and starts the fresh backup instance
// (Appendix B: the agent ignores all of its previous computations and
// executes a new instance of the backup protocol).
func (p *stableApproxRule) raise(w *stableAgent) {
	if w.errFlag {
		return
	}
	w.errFlag = true
	w.bk = backup.InitApprox()
	w.bkInstance = 1
}

// bkActive reports whether agent w currently executes the backup
// protocol: instance 0 until leaderDone, instance 1 after an error.
func (p *stableApproxRule) bkActive(w *stableAgent) bool {
	if w.errFlag {
		return true
	}
	return !w.led.Done
}

// inED reports whether agent w currently executes the Error Detection
// protocol.
func (p *stableApproxRule) inED(w *stableAgent) bool {
	return w.led.Done && w.searchDone && !w.errFlag
}

// edStep applies one interaction of the ErrorDetection protocol
// (Algorithm 7) to the pair (a, b).
func (p *stableApproxRule) edStep(a, b *stableAgent) {
	// Line 1–2: an agent entering error detection resets its state; the
	// synchronized anchor travels with the searchDone infection.
	if p.inED(a) && !p.inED(b) && !b.errFlag && b.led.Done {
		p.enterED(b, a.edAnchor)
	} else if p.inED(b) && !p.inED(a) && !a.errFlag && a.led.Done {
		p.enterED(a, b.edAnchor)
	}
	if !p.inED(a) || !p.inED(b) {
		return
	}

	p.edBoundary(a, b)
	p.edBoundary(b, a)

	// Synchronization check: after the clock update at the beginning of
	// the interaction, two correctly synchronized agents are in the same
	// phase′ — except that a junta member advancing from an equal clock
	// value can legitimately be exactly one phase ahead at a boundary.
	// A difference of two or more phases means the execution became
	// asynchronous.
	if d := absInt16(int16(a.edPhase) - int16(b.edPhase)); d >= 2 {
		p.raise(a)
		p.raise(b)
		return
	}
	if a.edPhase != b.edPhase {
		// Boundary window: postpone the phase-keyed pair rules until the
		// agents agree.
		return
	}

	switch a.edPhase {
	case 1:
		// Line 5–7: powers-of-two load balancing among non-leaders.
		if !a.led.IsLeader && !b.led.IsLeader {
			balance.PowerOfTwo(&a.k, &b.k)
		}
	case 3:
		// Line 15–16: classical load balancing (all agents).
		lu, lv := int64(a.l), int64(b.l)
		balance.Classical(&lu, &lv)
		a.l, b.l = int16(lu), int16(lv)
	case 4:
		// Line 20–21: balancing error checks.
		if a.l < 3 || b.l < 3 || absInt16(a.l-b.l) > 2 {
			p.raise(a)
			p.raise(b)
			return
		}
		// Line 22: broadcast the result from the leader.
		if a.k < b.k {
			a.k = b.k
		} else if b.k < a.k {
			b.k = a.k
		}
	}
}

// enterED moves agent w into the Error Detection stage (Algorithm 7,
// lines 1–2): non-leaders clear k so the stage's powers-of-two balancing
// starts from empty agents.
func (p *stableApproxRule) enterED(w *stableAgent, anchor uint8) {
	w.searchDone = true
	w.edAnchor = anchor
	w.edPhase = 0
	w.l = 0
	if !w.led.IsLeader {
		w.k = -1
	}
}

// edBoundary applies the Error Detection first-tick rules to endpoint w
// with partner q, and maintains the agent's phase′ counter.
func (p *stableApproxRule) edBoundary(w, q *stableAgent) {
	if w.frozen {
		return
	}
	if ph := p.clk.PhasesSince(w.clk, w.edAnchor); ph < int(w.edPhase) {
		// The modular distance wrapped; treat as stuck (the stage lasts
		// 5 phases ≪ the modulus, so this indicates desynchronization).
		p.raise(w)
		return
	} else if ph > 4 {
		w.edPhase = 4
		w.frozen = true
	} else {
		w.edPhase = uint8(ph)
	}
	if !w.clk.FirstTick {
		return
	}
	switch w.edPhase {
	case 0:
		// Line 3–4: the leader initializes another agent with 2^(k−2)
		// tokens in powers-of-two representation.
		if w.led.IsLeader && !q.led.IsLeader && p.inED(q) && w.k >= 2 {
			q.k = w.k - 2
		}
	case 2:
		// Line 8–14: convert the powers-of-two share into 32 classical
		// tokens; any pile larger than one token means the balancing
		// failed.
		switch {
		case w.k == -1 || w.led.IsLeader:
			w.l = 0
		case w.k == 0:
			w.l = edTokens
		default:
			p.raise(w)
		}
	case 4:
		// Line 18–19: the leader recomputes the approximation of log n
		// from its own balanced load; then the clock stops (line 23).
		if w.led.IsLeader && w.l >= 1 {
			w.k = edRecompute(w.k, w.l)
		}
		w.frozen = true
	}
}

func absInt16(x int16) int16 {
	if x < 0 {
		return -x
	}
	return x
}

// edRecompute is Algorithm 7's line 19, k = ⌊k + 3 − log₂ ℓ⌉ for ℓ ≥ 1,
// rounding halves away from zero.
func edRecompute(k, l int16) int16 {
	return int16(math.Round(float64(k) + 3 - math.Log2(float64(l))))
}
