// Transition specs for the paper's composed counting protocols.
//
// The four headline protocols — Approximate, CountExact and their
// stable hybrids — are products of sub-protocols: a junta triplet, an
// extended phase-clock value, an election record and the counting
// variables. Each protocol's transition rule is written once, as the
// stepPair method of its *Rule type, and one generic constructor,
// newInterned, packages it as a sim.Spec over an interner of its
// product states. The constructor builds every field from what the
// protocol supplies (name, size, hash, initial state, canon, output,
// error flag, codec, convergence predicate); the protocol writes only
// the two closures the Delta memo calls on a window miss, Delta and
// Randomized, with direct calls to its rule, because a state passed by
// pointer through a function value escapes to the heap. Each rule's
// deterministic prefix (junta, re-initialization, clock tick) is one
// method that stepPair runs and the coin claim pairDrawsCoins dry-runs,
// so the claim reads the rule's own prefix. The stable hybrids extend
// their fast protocols: StableApproximate embeds Approximate's agent
// and rule and runs its Search stage as is; StableCountExact shares
// CountExact's rule wiring but keeps its own stages, whose error checks
// change which stage an agent is in mid-step.
//
// The spec is the protocol's only runnable form; every engine and
// experiment runs it. Three test pins hold it to the rule: a reference
// loop steps a plain agent array with the same stepPair on the engine's
// pair stream and compares it state by state with the spec agent,
// digests of every state's encoding along fixed trajectories fix the
// rules themselves, and golden results recorded from the agent arrays
// the package used to export fix where each run stops.
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

// deltaFunc and claimFunc are the types of sim.Spec's Delta and
// Randomized.
type (
	deltaFunc = func(qu, qv uint64, r *rng.Rand) (uint64, uint64)
	claimFunc = func(qu, qv uint64) bool
)

// protocol is what a product-state protocol supplies to newInterned.
type protocol[S comparable] struct {
	name  string
	n     int
	hash  func(S) uint64
	init  S
	canon func(S) S
	// step is the rule's stepPair on values, which the shard closures
	// call through this function value without a state escaping.
	step      func(a, b S, r *rng.Rand) (S, S)
	output    func(S) int64
	errFlag   func(S) bool // nil for protocols without error detection
	encode    func(S) []byte
	decode    func([]byte) (S, error)
	converged func(sim.ConfigView) bool
}

// interned is a protocol's spec with the interner that names its
// states; the four exported spec types embed it.
type interned[S comparable] struct {
	*sim.Spec
	in *sim.Interner[S]
}

// newInterned builds the protocol's spec over a fresh interner. miss
// returns the spec's Delta and Randomized, written against that
// interner; the spec memoizes both (see sim.DeltaMemo), so each code
// pair is classified and resolved on a window miss only. Shard views
// bypass the memo (their provisional codes carry the tag bit), so the
// ShardDelta closures stay the parallel path.
func newInterned[S comparable](p protocol[S], miss func(in *sim.Interner[S]) (deltaFunc, claimFunc)) interned[S] {
	in := sim.NewInterner(p.hash)
	n, initCode := int64(p.n), in.Code(p.canon(p.init))
	// The closures capture the fields they call, not p: a protocol
	// record up to 128 bytes would be copied into each of them.
	canon, step, output, encode, decode, errFlag := p.canon, p.step, p.output, p.encode, p.decode, p.errFlag
	s := &sim.Spec{
		Name: p.name,
		N:    p.n,
		Init: func() map[uint64]int64 { return map[uint64]int64{initCode: n} },
		ShardDelta: func(k int) ([]deltaFunc, func() map[uint64]uint64) {
			g := sim.ShardViews(in, k)
			ds := make([]deltaFunc, k)
			for i := range ds {
				v := g.View(i)
				ds[i] = func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
					a, b := step(v.State(qu), v.State(qv), r)
					return v.Recode(canon(a), qu), v.Recode(canon(b), qv)
				}
			}
			return ds, g.Reconcile
		},
		Converged:   p.converged,
		Output:      func(q uint64) int64 { return output(in.State(q)) },
		EncodeState: func(q uint64) []byte { return encode(in.State(q)) },
		DecodeState: func(b []byte) (uint64, error) {
			w, err := decode(b)
			if err != nil {
				return 0, err
			}
			return in.Code(canon(w)), nil
		},
	}
	if errFlag != nil {
		s.Errored = func(v sim.ConfigView) bool {
			raised := false
			v.ForEach(func(code uint64, _ int64) { raised = raised || errFlag(in.State(code)) })
			return raised
		}
	}
	s.Delta, s.Randomized = miss(in)
	s.MemoizeDelta()
	return interned[S]{Spec: s, in: in}
}

// agree reports whether every occupied state of v qualifies and all
// carry one value, under value, returning that value; an empty view
// never agrees. It is the shape of every convergence predicate here.
func (p interned[S]) agree(v sim.ConfigView, value func(S) (int64, bool)) (int64, bool) {
	ok, first := true, true
	var want int64
	v.ForEach(func(code uint64, _ int64) {
		if !ok {
			return
		}
		x, qualifies := value(p.in.State(code))
		if !qualifies || (!first && x != want) {
			ok = false
			return
		}
		want, first = x, false
	})
	return want, ok && !first
}

// States returns the number of distinct states interned so far — the
// reachable alphabet fragment the engines discovered.
func (p interned[S]) States() int { return p.in.Len() }
