package core

import (
	"popcount/internal/backup"
	"popcount/internal/balance"
	"popcount/internal/clock"
	"popcount/internal/junta"
	"popcount/internal/leader"
	"popcount/internal/rng"
)

// stableExactAgent is the per-agent state of StableCountExact: the fast
// path of CountExact plus the error flag and the exact backup protocol of
// Appendix C.2.
type stableExactAgent struct {
	jnt junta.State
	clk clock.State
	led leader.FastState

	i       int32
	k       int32
	l       int64
	apxDone bool

	refAnchor     uint8
	refEntered    bool
	refInjected   bool
	refMultiplied bool
	frozen        bool

	errFlag bool

	bk         backup.ExactState
	bkInstance uint8
}

// stableExactRule is the n-independent part of StableCountExact, which
// the transition spec (NewStableCountExactSpec) applies to decoded
// state pairs.
type stableExactRule struct {
	cfg   Config
	clk   clock.Clock
	elect leader.FastElection

	// FaultInjection corrupts the leader's approximation k when the
	// Approximation Stage concludes, forcing the error path.
	FaultInjection bool
}

// newStableExactRule wires the rule for cfg (with defaults applied).
func newStableExactRule(cfg Config) stableExactRule {
	cfg = cfg.withDefaults()
	if cfg.N < 2 {
		panic("core: population must have at least 2 agents")
	}
	c := clock.New(cfg.ClockM)
	return stableExactRule{cfg: cfg, clk: c, elect: leader.NewFastElection(c, cfg.FastRounds)}
}

// initAgent returns the initial per-agent state.
func (p *stableExactRule) initAgent() stableExactAgent {
	return stableExactAgent{
		jnt: junta.InitState(),
		clk: p.clk.Init(),
		led: p.elect.Init(),
		bk:  backup.InitExact(),
	}
}

// stepPair applies one interaction of the rule to the pair (a, b) with
// initiator a.
func (p *stableExactRule) stepPair(a, b *stableExactAgent, r *rng.Rand) {
	// Error flags spread by one-way epidemics.
	if a.errFlag != b.errFlag {
		if a.errFlag {
			p.raise(b)
		} else {
			p.raise(a)
		}
	}

	// Backup protocol: instance 0 runs until leaderDone, instance 1
	// after an error; merges only within one instance.
	if p.bkActive(a) && p.bkActive(b) && a.bkInstance == b.bkInstance {
		backup.ExactInteract(&a.bk, &b.bk)
	}

	// Junta process with per-level re-initialization.
	preA, preB := a.jnt.Level, b.jnt.Level
	junta.Interact(&a.jnt, &b.jnt)
	if a.jnt.Level != preA {
		p.reinit(a, b, preB)
	}
	if b.jnt.Level != preB {
		p.reinit(b, a, preA)
	}

	// Phase clocks (frozen agents no longer participate).
	switch {
	case !a.frozen && !b.frozen:
		p.clk.Tick(&a.clk, &b.clk, a.jnt.Junta, b.jnt.Junta)
	case a.frozen && !b.frozen:
		p.clk.TickOne(&b.clk, a.clk.Val, b.jnt.Junta)
	case !a.frozen && b.frozen:
		p.clk.TickOne(&a.clk, b.clk.Val, a.jnt.Junta)
	}

	// Two concluded leaders meeting is a detectable error (Appendix F).
	if a.led.IsLeader && b.led.IsLeader && a.led.Done && b.led.Done {
		p.raise(a)
		p.raise(b)
	}
	if a.errFlag && b.errFlag {
		return
	}

	// Stage 1: FastLeaderElection.
	if !a.led.Done || !b.led.Done {
		p.elect.Interact(&a.led, &b.led, a.clk, b.clk, a.jnt.Level, b.jnt.Level, r)
	}

	// Stage 2: Approximation Stage.
	p.apxStep(a, b)

	// Stage 3: Refinement Stage with error checks.
	p.refineStep(a, b)
}

func (p *stableExactRule) reinit(w, q *stableExactAgent, qPreLevel uint8) {
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
	w.frozen = false
}

func (p *stableExactRule) raise(w *stableExactAgent) {
	if w.errFlag {
		return
	}
	w.errFlag = true
	w.bk = backup.InitExact()
	w.bkInstance = 1
}

func (p *stableExactRule) bkActive(w *stableExactAgent) bool {
	if w.errFlag {
		return true
	}
	return !w.led.Done
}

func (p *stableExactRule) inApx(w *stableExactAgent) bool {
	return w.led.Done && !w.apxDone && !w.errFlag
}

func (p *stableExactRule) apxStep(a, b *stableExactAgent) {
	p.apxBoundary(a)
	p.apxBoundary(b)
	if p.inApx(a) && p.inApx(b) {
		balance.Classical(&a.l, &b.l)
	}
	if a.apxDone && p.inApx(b) {
		p.enterRefinement(b, a.refAnchor)
	} else if b.apxDone && p.inApx(a) {
		p.enterRefinement(a, b.refAnchor)
	}
}

func (p *stableExactRule) apxBoundary(w *stableExactAgent) {
	if !p.inApx(w) || !w.clk.FirstTick {
		return
	}
	e := injectExp(w.jnt.Level, p.cfg.Shift)
	if w.led.IsLeader && w.i == 0 {
		w.l = 1
	}
	if w.led.IsLeader && w.l >= 4 && w.i > 0 {
		k := w.i*e - int32(log2Floor64(w.l))
		if k < 0 {
			k = 0
		}
		if p.FaultInjection {
			// Claim a population 16 times too small: the refinement's
			// pre-multiplication load check must catch this.
			k -= 4
			if k < 0 {
				k = 0
			}
		}
		w.k = k
		p.enterRefinement(w, p.clk.PhaseIdx(w.clk))
		return
	}
	w.i++
	if w.l > 0 {
		if w.l > int64(1)<<(62-uint(e)) {
			p.raise(w)
		} else {
			w.l <<= uint(e)
		}
	}
}

func (p *stableExactRule) enterRefinement(w *stableExactAgent, anchor uint8) {
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

func (p *stableExactRule) inRef(w *stableExactAgent) bool {
	return w.led.Done && w.apxDone && !w.errFlag
}

func (p *stableExactRule) refineStep(a, b *stableExactAgent) {
	p.refBoundary(a)
	p.refBoundary(b)
	if !p.inRef(a) || !p.inRef(b) {
		return
	}

	rpA := p.clk.PhasesSince(a.clk, a.refAnchor)
	rpB := p.clk.PhasesSince(b.clk, b.refAnchor)
	if rpA > 4 {
		rpA = 4
	}
	if rpB > 4 {
		rpB = 4
	}
	// Appendix F: agents compare their (stage-local) phase counts;
	// divergence beyond the legitimate one-phase boundary window is an
	// error.
	if d := rpA - rpB; d >= 2 || d <= -2 {
		p.raise(a)
		p.raise(b)
		return
	}

	// k broadcast (phase 0 rule); after both agents multiplied, their k
	// values must agree (Appendix F).
	if a.refMultiplied && b.refMultiplied && a.k != b.k {
		p.raise(a)
		p.raise(b)
		return
	}
	if a.k < b.k {
		a.k = b.k
	} else if b.k < a.k {
		b.k = a.k
	}

	if a.refMultiplied == b.refMultiplied {
		balance.Classical(&a.l, &b.l)
	}
}

func (p *stableExactRule) refBoundary(w *stableExactAgent) {
	if !p.inRef(w) || !w.clk.FirstTick || w.frozen {
		return
	}
	switch rp := p.clk.PhasesSince(w.clk, w.refAnchor); rp {
	case 1:
		if w.led.IsLeader && !w.refInjected {
			w.refInjected = true
			w.l = refC << uint(w.k)
		}
	case 2:
		if !w.refMultiplied {
			w.refMultiplied = true
			// Appendix F: verify the load is at least 2⁵ − 1.5 before
			// multiplying; an under-loaded agent means the total load is
			// insufficient to compute n exactly.
			if !w.led.IsLeader && w.l < 31 {
				p.raise(w)
				return
			}
			if w.l > 0 && w.k > 0 {
				if w.l > int64(1)<<(62-uint(w.k)) {
					p.raise(w)
				} else {
					w.l <<= uint(w.k)
				}
			}
		}
	default:
		if rp >= 3 {
			// The stage is complete: stop the phase clock so the
			// configuration is stable.
			w.frozen = true
		}
	}
}
