package core

import (
	"popcount/internal/backup"
	"popcount/internal/balance"
	"popcount/internal/clock"
	"popcount/internal/junta"
	"popcount/internal/leader"
	"popcount/internal/rng"
)

// edTokens is the constant 32 with which the Error Detection protocol
// over-compensates its load initialization (Algorithm 7, line 12).
const edTokens = 32

// stableAgent is the per-agent state of the stable protocol
// StableApproximate: the fast path of Approximate, the Error Detection
// protocol of Algorithm 7, and the backup protocol of Appendix C.1.
type stableAgent struct {
	// Fast path (identical to Approximate).
	jnt        junta.State
	clk        clock.State
	led        leader.State
	k          int16
	searchDone bool

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

// stableApproxRule is the n-independent part of StableApproximate: the
// configuration and sub-protocol wiring defining the pairwise rule,
// which the transition spec (NewStableApproximateSpec) applies to
// decoded state pairs.
type stableApproxRule struct {
	cfg   Config
	clk   clock.Clock
	elect leader.Election

	// FaultInjection corrupts the leader's k when the search concludes,
	// forcing the error-detection → backup path (experiment E9).
	FaultInjection bool
}

// newStableApproxRule wires the rule for cfg (with defaults applied).
func newStableApproxRule(cfg Config) stableApproxRule {
	cfg = cfg.withDefaults()
	if cfg.N < 2 {
		panic("core: population must have at least 2 agents")
	}
	c := clock.New(cfg.ClockM)
	return stableApproxRule{cfg: cfg, clk: c, elect: leader.NewElection(c, cfg.OuterM)}
}

// initAgent returns the initial per-agent state.
func (p *stableApproxRule) initAgent() stableAgent {
	return stableAgent{
		jnt: junta.InitState(),
		clk: p.clk.Init(),
		led: p.elect.Init(),
		k:   -1,
		bk:  backup.InitApprox(),
	}
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

	// Junta process with per-level re-initialization, as in Approximate.
	preA, preB := a.jnt.Level, b.jnt.Level
	junta.Interact(&a.jnt, &b.jnt)
	if a.jnt.Level != preA {
		p.reinit(a, b, preB)
	}
	if b.jnt.Level != preB {
		p.reinit(b, a, preA)
	}

	// Phase clocks; a frozen agent (phase′ 4) no longer participates,
	// but its partner still reads its value (Algorithm 7, line 23).
	switch {
	case !a.frozen && !b.frozen:
		p.clk.Tick(&a.clk, &b.clk, a.jnt.Junta, b.jnt.Junta)
	case a.frozen && !b.frozen:
		p.clk.TickOne(&b.clk, a.clk.Val, b.jnt.Junta)
	case !a.frozen && b.frozen:
		p.clk.TickOne(&a.clk, b.clk.Val, a.jnt.Junta)
	}

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

	// Stage 2: the Search Protocol (identical to Approximate).
	p.searchStep(a, b)

	// Stage 3: Error Detection (replaces the Broadcasting Stage;
	// Algorithm 6).
	p.edStep(a, b)
}

func (p *stableApproxRule) reinit(w, q *stableAgent, qPreLevel uint8) {
	if qPreLevel >= w.jnt.Level {
		w.clk = q.clk
		w.clk.FirstTick = false
	} else {
		w.clk = p.clk.Init()
	}
	w.led = p.elect.Init()
	w.k = -1
	w.searchDone = false
	w.edAnchor, w.edPhase, w.l, w.frozen = 0, 0, 0, false
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

// inSearch reports whether agent w currently executes the Search Protocol.
func (p *stableApproxRule) inSearch(w *stableAgent) bool {
	return w.led.Done && !w.searchDone && !w.errFlag
}

// searchStep is the Search Protocol step (Algorithm 1), identical to
// Approximate's.
func (p *stableApproxRule) searchStep(a, b *stableAgent) {
	p.searchBoundary(a)
	p.searchBoundary(b)
	p.searchLeaderActions(a, b)
	p.searchLeaderActions(b, a)
	if !p.inSearch(a) || !p.inSearch(b) || a.led.IsLeader || b.led.IsLeader {
		return
	}
	switch p.clk.PhaseMod(a.clk, 5) {
	case 2:
		balance.PowerOfTwo(&a.k, &b.k)
	case 3:
		if a.k < b.k {
			a.k = b.k
		} else if b.k < a.k {
			b.k = a.k
		}
	}
}

// searchBoundary resets a non-leader's k once at phase-0 entry; see the
// corresponding comment in approxRule.searchBoundary for why the reset
// must not repeat throughout phase 0.
func (p *stableApproxRule) searchBoundary(w *stableAgent) {
	if !p.inSearch(w) || w.led.IsLeader || !w.clk.FirstTick {
		return
	}
	if p.clk.PhaseMod(w.clk, 5) == 0 {
		w.k = -1
	}
}

func (p *stableApproxRule) searchLeaderActions(w, q *stableAgent) {
	if !w.led.IsLeader || !p.inSearch(w) || !w.clk.FirstTick {
		return
	}
	switch p.clk.PhaseMod(w.clk, 5) {
	case 1:
		if !q.led.IsLeader && p.inSearch(q) {
			q.k = w.k
		}
	case 4:
		if q.k <= 0 {
			if w.k < maxSearchK {
				w.k++
			}
		} else {
			w.searchDone = true
			if p.FaultInjection {
				// Corrupt the result to exercise the error-detection →
				// backup path: claim a population sixteen times too
				// small. (Smaller corruptions are silently *corrected*
				// by Algorithm 7's line 19, which recomputes k from the
				// balanced load — a feature, covered by its own test.)
				w.k -= 4
				if w.k < 1 {
					w.k = 1
				}
			}
			// The leader anchors the Error Detection stage to the phase
			// in which it concluded the search; the anchor travels with
			// the searchDone infection.
			w.edAnchor = p.clk.PhaseIdx(w.clk)
			w.edPhase = 0
			w.l = 0
		}
	}
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
			w.k = int16(roundToInt(float64(w.k) + 3 - log2f(float64(w.l))))
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

func roundToInt(x float64) int {
	if x >= 0 {
		return int(x + 0.5)
	}
	return -int(-x + 0.5)
}

// log2f returns log₂ x for x > 0.
func log2f(x float64) float64 {
	// ln(x)/ln(2) via the standard library would pull in math; a small
	// iterative log2 on the integer and fractional parts keeps the hot
	// path allocation-free. Loads here are ≤ 32, so a table would do,
	// but the closed form is clearer.
	n := 0
	for x >= 2 {
		x /= 2
		n++
	}
	for x < 1 {
		x *= 2
		n--
	}
	// x ∈ [1, 2): one step of binary-log refinement per fractional bit.
	frac := 0.0
	add := 0.5
	for i := 0; i < 20; i++ {
		x *= x
		if x >= 2 {
			frac += add
			x /= 2
		}
		add /= 2
	}
	return float64(n) + frac
}
