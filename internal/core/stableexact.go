package core

import (
	"math/bits"

	"popcount/internal/backup"
	"popcount/internal/balance"
	"popcount/internal/clock"
	"popcount/internal/junta"
	"popcount/internal/leader"
	"popcount/internal/rng"
	"popcount/internal/sim"
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

// canonStableExact canonicalizes one StableCountExact agent state for
// interning (clock quotient plus the fast election's dead Phases
// counter; Val/Tag stay, see the package comment in spec.go).
func canonStableExact(w stableExactAgent) stableExactAgent {
	w.clk = canonClock(w.clk)
	w.led = canonFastLed(w.led)
	return w
}

// stableExactStateOutput is the output of one decoded StableCountExact
// state: the backup's count after an error, otherwise ⌊2^8·2^(2k)/ℓ⌉.
func stableExactStateOutput(w stableExactAgent) int64 {
	if w.errFlag {
		return w.bk.Count
	}
	return refinedCount(w.refMultiplied, w.k, w.l)
}

// StableCountExactSpec couples the stable protocol's transition spec
// with its state codec.
type StableCountExactSpec struct {
	interned[stableExactAgent]
	rule *stableExactRule
}

// NewStableCountExactSpec returns the canonical transition spec of
// StableCountExact, the stable (always correct) variant of protocol
// CountExact (Theorem 2 and Appendix F), over cfg. On top of the fast
// path it detects: two concluded leaders meeting, phase-counter
// divergence during the Refinement Stage, insufficient load before the
// refinement multiplication (ℓ < 2⁵ − 1.5, meaning the approximation k
// was too small), disagreeing k values, and arithmetic overflow. Any
// error switches the population to a fresh instance of the exact backup
// protocol (Appendix C.2), which outputs n with probability 1.
//
// faultInject corrupts the leader's k when the Approximation Stage
// concludes, forcing the error → backup path.
func NewStableCountExactSpec(cfg Config, faultInject bool) *StableCountExactSpec {
	rule := stableExactRule{exactRule: newExactRule(cfg), FaultInjection: faultInject}
	p := &StableCountExactSpec{rule: &rule}
	p.interned = newInterned(protocol[stableExactAgent]{
		name:      "stable-exact",
		n:         rule.cfg.N,
		hash:      hashStableExact,
		init:      rule.initAgent(),
		canon:     canonStableExact,
		step:      rule.step,
		output:    stableExactStateOutput,
		errFlag:   func(w stableExactAgent) bool { return w.errFlag },
		encode:    encodeStableExact,
		decode:    decodeStableExact,
		converged: p.converged,
	}, func(in *sim.Interner[stableExactAgent]) (deltaFunc, claimFunc) {
		delta := func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
			a, b := in.State(qu), in.State(qv)
			rule.stepPair(&a, &b, r)
			return in.Recode(canonStableExact(a), qu), in.Recode(canonStableExact(b), qv)
		}
		return delta, func(qu, qv uint64) bool { return rule.pairDrawsCoins(in.State(qu), in.State(qv)) }
	})
	return p
}

// converged reports whether the population has stabilized, on a
// configuration view: either every occupied state is frozen after the
// Refinement Stage with one common nonzero output and no error, or
// every state runs the fresh backup instance and it has converged.
func (p *StableCountExactSpec) converged(v sim.ConfigView) bool {
	if p.Errored(v) {
		return p.backupConverged(v)
	}
	_, ok := p.agree(v, func(w stableExactAgent) (int64, bool) {
		out := stableExactStateOutput(w)
		return out, w.frozen && w.refMultiplied && w.l > 0 && out != 0
	})
	return ok
}

// backupConverged is Lemma 13's terminal condition over state
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

// stableExactRule is StableCountExact's rule: CountExact's wiring with
// its own stages, whose error checks raise the flag where CountExact's
// set overflow and so change which stage an agent is in mid-step.
type stableExactRule struct {
	exactRule

	// FaultInjection corrupts the leader's approximation k when the
	// Approximation Stage concludes, forcing the error path.
	FaultInjection bool
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

	// Junta, re-initialization and phase clocks.
	p.prefix(a, b)

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

// prefix applies the deterministic head of an interaction, which
// stepPair runs and pairDrawsCoins dry-runs: the junta process with
// per-level re-initialization, then the phase clocks, where frozen
// agents no longer tick.
func (p *stableExactRule) prefix(a, b *stableExactAgent) {
	preA, preB := a.jnt.Level, b.jnt.Level
	junta.Interact(&a.jnt, &b.jnt)
	if a.jnt.Level != preA {
		p.reinit(a, b, preB)
	}
	if b.jnt.Level != preB {
		p.reinit(b, a, preA)
	}
	tickUnfrozen(p.clk, &a.clk, &b.clk, a.frozen, b.frozen, a.jnt.Junta, b.jnt.Junta)
}

// pairDrawsCoins reports whether an interaction of the pair consumes
// synthetic coins: the fast election's even-boundary sampling condition
// after the deterministic prefix. Conservative only in ignoring the
// error-flag gate.
func (p *stableExactRule) pairDrawsCoins(a, b stableExactAgent) bool {
	p.prefix(&a, &b)
	return p.fastDraws(a.clk, a.led) || p.fastDraws(b.clk, b.led)
}

// step is stepPair on values, for the spec's shard closures.
func (p *stableExactRule) step(a, b stableExactAgent, r *rng.Rand) (stableExactAgent, stableExactAgent) {
	p.stepPair(&a, &b, r)
	return a, b
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
		k := w.i*e - int32(bits.Len64(uint64(w.l))-1)
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
