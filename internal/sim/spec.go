// The transition-spec layer: one canonical description of a population
// protocol from which every engine form is derived.
//
// The paper's protocols are pure pairwise transition rules δ: Q×Q → Q×Q
// over a finite state space, yet an engine wants the rule in different
// shapes: the agent-array Engine applies it to two indexed agents, the
// CountEngine applies it to a configuration of per-state counts, and the
// batch planner wants the deterministic fragment as a transition matrix
// (DeterministicDelta) plus a certain-no-op predicate (SelfLooper).
// Before this layer, every protocol hand-wrote all three forms and the
// equivalence between them was only pinned statistically.
//
// A Spec states the rule once — a state-code domain, a transition
// function over codes, the predicates that classify pairs (randomized,
// certain no-op), the convergence/output functions, and the initial
// configuration — and the two adapters derive the engine forms
// mechanically:
//
//   - NewSpecAgent builds the agent form: an array of state codes driven
//     by the spec's Delta, with a count mirror — a CountConfig without
//     a sampler, repaired as agents move — so the configuration-level
//     convergence predicate scans the mirror's occupied window instead
//     of n agents. It implements Protocol, BatchInteractor, Converger
//     and Outputter.
//   - NewSpecCount builds the count form: a CountProtocol (plus
//     CountConverger, CountOutputter, DeterministicDelta, and — when the
//     spec opts in — SelfLooper) whose methods are direct projections of
//     the spec's fields.
//
// Protocols whose agents draw a random value at their first interaction
// (the geometric estimator baseline) can declare a one-shot
// initialization sampler instead: InitSample draws the whole
// population's values up front from the engine's generator — by the
// principle of deferred decisions this has exactly the trajectory
// distribution of drawing lazily, because an agent's pending value is
// never read before its first interaction — which turns the
// per-interaction rule deterministic and therefore batchable. Both
// engines invoke the sampler at construction, before any interaction,
// through the InitSampler/CountInitSampler hooks.
package sim

import (
	"fmt"
	"sort"

	"popcount/internal/rng"
)

// ConfigView is a read-only view of a population configuration — the
// multiset of agent states as counts over the occupied alphabet. The
// count engine's CountConfig implements it, and the agent adapter's
// count mirror is a CountConfig too, so one configuration-level
// convergence predicate serves every engine form.
type ConfigView interface {
	// N returns the population size.
	N() int64
	// Count returns the number of agents in the state with the given
	// code (zero for states never occupied).
	Count(code uint64) int64
	// ForEach calls f for every currently occupied state.
	ForEach(f func(code uint64, count int64))
}

// Spec is the canonical transition specification of a population
// protocol: the one place a protocol's rule is written down, from which
// the agent-array, count-based and batched engine forms all derive.
type Spec struct {
	// Name labels the protocol in diagnostics.
	Name string

	// N is the population size.
	N int

	// Init returns the initial configuration as a map from state code to
	// multiplicity (positive entries summing to N). Exactly one of Init
	// and InitSample must be set.
	Init func() map[uint64]int64

	// InitSample, if set, replaces Init: it draws the initial
	// configuration from the engine's generator, once, at engine
	// construction. It is the hook for protocols whose agents sample a
	// random value at their first interaction — pre-drawing the whole
	// population's values (deferred decisions) makes Delta deterministic
	// and the protocol batchable.
	InitSample func(n int64, r *rng.Rand) map[uint64]int64

	// Layout, if set, fixes the agent adapter's assignment of initial
	// codes to agent indices (len N, consistent with Init). Protocols
	// whose classical form pins particular agents — the broadcast source
	// at index 0, the junta members first — set it so the derived agent
	// form is bit-for-bit the hand-written one. Nil assigns codes in
	// ascending order in contiguous blocks, which is equivalent under
	// the uniform scheduler (agents are exchangeable).
	Layout func() []uint64

	// Delta is the transition function δ(qu, qv) → (qu', qv') over state
	// codes, with the initiator first. Pairs not claimed by Randomized
	// must be deterministic and must not touch r (they are resolved with
	// r == nil when the engines derive transition matrices and no-op
	// predicates); claimed pairs draw their synthetic coins from r.
	Delta func(qu, qv uint64, r *rng.Rand) (uint64, uint64)

	// Randomized, if set, reports the pairs whose transition consumes
	// synthetic coins. It may be conservative: claiming a pair that is
	// actually deterministic only costs the batch planner speed, never
	// correctness. Nil means the rule is fully deterministic.
	Randomized func(qu, qv uint64) bool

	// SelfLoop, if set, is a cheap certain-no-op predicate (see
	// SelfLooper for the contract). Nil derives it from Delta, which is
	// correct but evaluates the full rule per pair.
	SelfLoop func(qu, qv uint64) bool

	// Skip opts the count form into the engine's self-loop skip path.
	// Protocols with small occupied alphabets and no-op-dominated
	// equilibria (epidemics, junta processes) should set it; protocols
	// whose alphabet is rich and moving (phase clocks, leader election)
	// should not — the no-op bookkeeping costs more than it saves.
	Skip bool

	// Converged, if set, is the convergence predicate over the current
	// configuration.
	Converged func(v ConfigView) bool

	// Output, if set, is the output function ω over state codes.
	Output func(q uint64) int64

	// Errored, if set, reports whether the configuration has raised the
	// protocol's error flag — the stable hybrids' detection → backup
	// handover. Protocols without error detection leave it nil.
	Errored func(v ConfigView) bool

	// EncodeState and DecodeState, if set, give state codes a portable
	// encoding for engine snapshots (see StateCodec): EncodeState must
	// be injective and DecodeState must map an encoding produced by any
	// instance of the same protocol to the code naming that state in
	// *this* instance — for interned specs, by decoding the product
	// state and re-interning it. Specs whose codes are arithmetic (the
	// code itself is the state) leave both nil and get the identity
	// encoding. Set both or neither.
	EncodeState func(q uint64) []byte
	DecodeState func(b []byte) (uint64, error)

	// Domain, if positive, declares that every reachable state code lies
	// in [0, Domain). It is metadata, not a constraint the adapters
	// enforce: a small declared domain lets NewSpecAgent precompile
	// Delta's deterministic fragment into a flat successor table (one
	// lookup per interaction instead of a closure call). Specs with
	// sparse or interned codes leave it zero and keep the lazy paths.
	Domain uint64

	// ShardDelta, if set, equips the spec for the count engine's
	// intra-run sharding (Config.Shards ≥ 2): ShardDelta(k) returns k
	// Delta closures that may run concurrently with each other while the
	// engine holds every other spec entry point quiescent, plus a
	// reconcile function the engine calls serially after each parallel
	// round. Interned specs back the closures with ShardViews — fresh
	// product states get shard-provisional codes, and reconcile folds
	// them into the canonical namespace (ascending shard order) and
	// returns the provisional → canonical remap (nil when no fresh state
	// appeared). Specs whose Delta is already safe to call concurrently
	// set PureDelta instead; specs providing neither have their
	// randomized pairs resolved serially under sharding, which only
	// costs speed.
	ShardDelta func(k int) (deltas []func(qu, qv uint64, r *rng.Rand) (uint64, uint64), reconcile func() map[uint64]uint64)

	// PureDelta declares that Delta closes over no mutable state and may
	// be invoked concurrently (each call still gets its own generator).
	// Arithmetic-code specs qualify; interned specs never do — their
	// Delta assigns codes on first sight and must use ShardDelta.
	PureDelta bool

	// PreferCount marks the count form as the profitable default: the
	// public EngineAuto resolution picks the count engine only for specs
	// that set it. Protocols with small occupied alphabets and
	// no-op-dominated equilibria benefit; the composed counting
	// protocols — whose count form trades per-interaction struct ops for
	// interning — stay on the agent engine unless explicitly requested.
	PreferCount bool

	// RingExchangeable certifies that the spec's dynamics remain a
	// function of per-state counts under the ring interaction graph:
	// from the spec's initial configurations, every reachable ring
	// configuration keeps the spreading state's agents on one contiguous
	// arc whose two boundary adjacencies are the only productive
	// interactions. Single-source monotone spread (one seeded agent, a
	// totally ordered state set, Delta only ever lifts toward the
	// maximum) qualifies; anything with multiple seeds or non-monotone
	// rules does not. The count engine accepts a ring GraphScheduler
	// only for specs that set it — others fall back to the agent engine.
	RingExchangeable bool

	// Memo, set by MemoizeDelta, is the code-indexed successor memo the
	// Delta and Randomized fields resolve through. The adapters use it
	// to answer DeltaDet and derived self-loop queries in one lookup
	// instead of a classify + resolve pair. It is derived state — never
	// serialized into snapshots, rebuilt lazily on restore.
	Memo *DeltaMemo
}

// validate checks the spec's structural invariants.
func (s *Spec) validate() error {
	if s == nil {
		return fmt.Errorf("sim: nil Spec")
	}
	if s.N < 2 {
		return ErrTooSmall
	}
	if s.Delta == nil {
		return fmt.Errorf("sim: Spec %q has no Delta", s.Name)
	}
	if (s.Init == nil) == (s.InitSample == nil) {
		return fmt.Errorf("sim: Spec %q must set exactly one of Init and InitSample", s.Name)
	}
	if (s.EncodeState == nil) != (s.DecodeState == nil) {
		return fmt.Errorf("sim: Spec %q must set both EncodeState and DecodeState or neither", s.Name)
	}
	if s.PureDelta && s.ShardDelta != nil {
		return fmt.Errorf("sim: Spec %q sets both PureDelta and ShardDelta", s.Name)
	}
	if s.PureDelta && s.Memo != nil {
		// The memo writes its window on every miss, so a memoized Delta
		// is never safe to call concurrently.
		return fmt.Errorf("sim: Spec %q sets PureDelta on a memoized Delta", s.Name)
	}
	if s.Layout != nil && s.InitSample != nil {
		// A fixed agent layout would silently override the sampler on
		// the agent adapter while the count adapter draws from it — the
		// two engine forms of one spec would simulate different initial
		// distributions.
		return fmt.Errorf("sim: Spec %q sets both Layout and InitSample", s.Name)
	}
	return nil
}

// randomized reports whether the pair's transition consumes coins.
func (s *Spec) randomized(qu, qv uint64) bool {
	return s.Randomized != nil && s.Randomized(qu, qv)
}

// selfLoop reports whether the pair is a certain no-op, deriving the
// answer from Delta when no cheap predicate was declared.
func (s *Spec) selfLoop(qu, qv uint64) bool {
	if s.SelfLoop != nil {
		return s.SelfLoop(qu, qv)
	}
	if m := s.Memo; m != nil {
		a, b, ok := m.DeltaDet(qu, qv)
		return ok && a == qu && b == qv
	}
	if s.randomized(qu, qv) {
		return false
	}
	a, b := s.Delta(qu, qv, nil)
	return a == qu && b == qv
}

// MemoizeDelta routes the spec's Delta and Randomized through a
// code-indexed successor memo (see DeltaMemo): repeated deterministic
// resolutions become one window lookup, bit-for-bit equivalent to the
// raw closures. Call it last in a spec constructor, after Delta and
// Randomized are set. Interned product-state specs are the intended
// users; the memo assumes Randomized is a pure function of the code
// pair with no interning side effects.
func (s *Spec) MemoizeDelta() *DeltaMemo {
	m := NewDeltaMemo(s.Delta, s.Randomized)
	s.Delta = m.Delta
	if s.Randomized != nil {
		s.Randomized = m.Randomized
	}
	s.Memo = m
	return m
}

// initCounts resolves the initial configuration, drawing it when the
// spec has an initialization sampler.
func (s *Spec) initCounts(r *rng.Rand) map[uint64]int64 {
	if s.InitSample != nil {
		return s.InitSample(int64(s.N), r)
	}
	return s.Init()
}

// sortedCodes returns the configuration's codes in ascending order (map
// iteration order must never leak into a trajectory).
func sortedCodes(init map[uint64]int64) []uint64 {
	codes := make([]uint64, 0, len(init))
	for code := range init {
		codes = append(codes, code)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	return codes
}

// InitSampler is an optional Protocol hook invoked by NewEngine once at
// construction, before any interaction, with the engine's generator —
// the agent-side twin of CountInitSampler. It is how a Spec's one-shot
// initialization sampler reaches the agent adapter at a well-defined
// point of the random stream.
type InitSampler interface {
	SampleInit(r *rng.Rand)
}

// SpecAgent is the agent-array form derived from a Spec: an array of
// state codes plus the spec's transition function, replacing the
// hand-written Interact/InteractBatch bodies of pre-spec protocols. It
// implements Protocol, BatchInteractor, Converger, Outputter and (for
// sampler specs) InitSampler.
type SpecAgent struct {
	spec *Spec
	code []uint64 // nil until the one-shot init sampler has run

	// view is the count mirror: the code array's histogram, kept by
	// move as agents change state, so the configuration-level
	// predicates scan its occupied window instead of n agents. It has
	// no sampler — the agent engine draws agents, not states.
	view CountConfig

	// Flat successor table for dense small-alphabet specs (see
	// precompile): succ[qu·dom+qv] holds the packed successor pair
	// a·dom+b, or specRandomizedEntry for pairs that consume coins.
	succ []uint64
	dom  uint64
}

// specTableMaxEntries bounds the flat successor table to Domain² ≤ 2¹⁶
// entries (512 KiB): large enough for every dense packed spec in the
// repository (junta: 2⁸ codes; powers-of-two balancing: <2⁸), small
// enough that per-trial precompilation stays in the low milliseconds —
// negligible against the Ω(n log n)-interaction runs the table speeds
// up.
const specTableMaxEntries = 1 << 16

// specRandomizedEntry marks a table slot whose pair is resolved through
// the Delta closure (it consumes synthetic coins). Packed successor
// values are below Domain² ≤ specTableMaxEntries, so the sentinel can
// never collide.
const specRandomizedEntry = ^uint64(0)

// NewSpecAgent derives the agent form of spec. It panics on a
// structurally invalid spec — specs are compiled-in protocol
// definitions, so an invalid one is a programming bug, not input.
func NewSpecAgent(spec *Spec) *SpecAgent {
	if err := spec.validate(); err != nil {
		panic(err)
	}
	p := &SpecAgent{spec: spec, view: CountConfig{n: int64(spec.N)}}
	p.precompile()
	if spec.InitSample == nil {
		p.materialize(nil)
	}
	return p
}

// precompile builds the flat successor table for specs that declare a
// table-sized dense code domain: every deterministic pair resolves to
// one slice lookup per interaction instead of a Delta closure call,
// which recovers the last ~20–30% of agent-engine throughput for the
// small-alphabet protocols. Pairs claimed by Randomized keep the
// closure path. Delta must be total on [0, Domain)² for unclaimed pairs
// — the Domain contract — because the table enumerates code pairs the
// trajectory may never reach.
func (p *SpecAgent) precompile() {
	d := p.spec.Domain
	if d == 0 || d > specTableMaxEntries/d {
		return
	}
	p.dom = d
	p.succ = make([]uint64, d*d)
	for qu := uint64(0); qu < d; qu++ {
		for qv := uint64(0); qv < d; qv++ {
			if p.spec.randomized(qu, qv) {
				p.succ[qu*d+qv] = specRandomizedEntry
				continue
			}
			a, b := p.spec.Delta(qu, qv, nil)
			if a >= d || b >= d {
				panic(fmt.Sprintf("sim: Spec %q Delta(%#x, %#x) leaves the declared domain %d", p.spec.Name, qu, qv, d))
			}
			p.succ[qu*d+qv] = a*d + b
		}
	}
}

// SampleInit runs the spec's one-shot initialization sampler and, for
// specs without a Layout, shuffles the initial code assignment with the
// engine's generator. The engine calls it at construction; direct
// drivers that step the protocol by hand get a lazy fallback in
// Interact/InteractBatch (and, lacking a generator at construction,
// keep the block assignment — which is equivalent under the uniform
// scheduler those drivers use).
func (p *SpecAgent) SampleInit(r *rng.Rand) {
	if p.code == nil {
		p.materialize(r)
		return
	}
	p.shuffle(r)
}

// materialize expands the initial configuration into the per-agent code
// array and the count mirror.
func (p *SpecAgent) materialize(r *rng.Rand) {
	spec := p.spec
	if spec.Layout != nil {
		layout := spec.Layout()
		if len(layout) != spec.N {
			panic(fmt.Sprintf("sim: Spec %q Layout has %d agents, want %d", spec.Name, len(layout), spec.N))
		}
		p.code = append([]uint64(nil), layout...)
		p.recount()
		// The layout must be a permutation of the Init configuration:
		// the count form starts from Init, so a mismatch would make the
		// two engine forms of one spec simulate different initial
		// configurations.
		init := spec.Init()
		if k := p.view.States(); len(init) != k {
			panic(fmt.Sprintf("sim: Spec %q Layout occupies %d states, Init %d", spec.Name, k, len(init)))
		}
		for code, cnt := range init {
			if got := p.view.Count(code); got != cnt {
				panic(fmt.Sprintf("sim: Spec %q Layout has %d agents in state %#x, Init %d", spec.Name, got, code, cnt))
			}
		}
		return
	}
	init := spec.initCounts(r)
	p.code = make([]uint64, 0, spec.N)
	for _, code := range sortedCodes(init) {
		cnt := init[code]
		if cnt <= 0 {
			panic(fmt.Sprintf("sim: Spec %q initial count %d for state %#x", spec.Name, cnt, code))
		}
		idx, _ := p.view.slot(code)
		p.view.add(idx, cnt)
		for i := int64(0); i < cnt; i++ {
			p.code = append(p.code, code)
		}
	}
	if len(p.code) != spec.N {
		panic(fmt.Sprintf("sim: Spec %q initial counts sum to %d, want n=%d", spec.Name, len(p.code), spec.N))
	}
	p.shuffle(r)
}

// recount rebuilds the count mirror from the code array, registering
// states in first-occurrence order.
func (p *SpecAgent) recount() {
	p.view = CountConfig{n: int64(p.spec.N)}
	for _, c := range p.code {
		idx, _ := p.view.slot(c)
		p.view.add(idx, 1)
	}
}

// shuffle de-correlates agent index from initial state for specs
// without a fixed Layout: the block expansion above assigns codes in
// sorted contiguous runs, which is only equivalent to an arbitrary
// assignment under the uniform scheduler (agents exchangeable) — a
// biased or matching scheduler distinguishes agents, so the assignment
// must be uniformly random. Single-state configurations are invariant
// under permutation and skip the draw, keeping such specs' random
// streams identical to the pre-shuffle contract (the junta bit-for-bit
// pin relies on this).
func (p *SpecAgent) shuffle(r *rng.Rand) {
	if r == nil || p.spec.Layout != nil || p.view.States() <= 1 {
		return
	}
	for i := len(p.code) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p.code[i], p.code[j] = p.code[j], p.code[i]
	}
}

// N returns the population size.
func (p *SpecAgent) N() int { return p.spec.N }

// Spec returns the underlying transition spec.
func (p *SpecAgent) Spec() *Spec { return p.spec }

// View returns the live count mirror of the agent array. For sampler
// specs it is empty until the initialization sampler has run.
func (p *SpecAgent) View() ConfigView { return &p.view }

// StateCount returns the number of agents currently in the state with
// the given code.
func (p *SpecAgent) StateCount(code uint64) int64 { return p.view.Count(code) }

// Code returns agent i's current state code (zero before a sampler
// spec's one-shot initialization has run, like Output and Converged).
func (p *SpecAgent) Code(i int) uint64 {
	if p.code == nil {
		return 0
	}
	return p.code[i]
}

// move reassigns one agent's code and repairs the mirror.
func (p *SpecAgent) move(i int, from, to uint64) {
	p.code[i] = to
	f, _ := p.view.find(from)
	p.view.add(f, -1)
	t, _ := p.view.slot(to)
	p.view.add(t, 1)
}

// Interact applies one transition of the spec's rule, through the flat
// successor table when the spec's domain allowed precompilation.
func (p *SpecAgent) Interact(u, v int, r *rng.Rand) {
	if p.code == nil {
		p.materialize(r) // direct driver without an engine: lazy one-shot init
	}
	qu, qv := p.code[u], p.code[v]
	var a, b uint64
	if p.succ != nil {
		if s := p.succ[qu*p.dom+qv]; s != specRandomizedEntry {
			a, b = s/p.dom, s%p.dom
		} else {
			a, b = p.spec.Delta(qu, qv, r)
		}
	} else {
		a, b = p.spec.Delta(qu, qv, r)
	}
	if a != qu {
		p.move(u, qu, a)
	}
	if b != qv {
		p.move(v, qv, b)
	}
}

// InteractBatch implements the engine's batch fast path: count
// consecutive interactions in one loop, bit-for-bit equal to count
// scalar Interact calls, with pair drawing devirtualized for the uniform
// scheduler.
func (p *SpecAgent) InteractBatch(count int64, sched Scheduler, r *rng.Rand) {
	if p.code == nil {
		p.materialize(r)
	}
	n := len(p.code)
	if _, uniform := sched.(UniformScheduler); uniform {
		for i := int64(0); i < count; i++ {
			u, v := r.Pair(n)
			p.Interact(u, v, r)
		}
		return
	}
	for i := int64(0); i < count; i++ {
		u, v := sched.Next(n, r)
		p.Interact(u, v, r)
	}
}

// Converged evaluates the spec's convergence predicate on the count
// mirror (false for specs without one, and before a sampler spec's
// initialization has run).
func (p *SpecAgent) Converged() bool {
	if p.spec.Converged == nil || p.code == nil {
		return false
	}
	return p.spec.Converged(&p.view)
}

// Output returns agent i's output under the spec's output function
// (zero for specs without one, and before a sampler spec's one-shot
// initialization has run).
func (p *SpecAgent) Output(i int) int64 {
	if p.spec.Output == nil || p.code == nil {
		return 0
	}
	return p.spec.Output(p.code[i])
}

// Errored evaluates the spec's error predicate on the count mirror
// (false for specs without error detection). It is how the stable
// hybrids' detection → backup handover surfaces through the engine
// API's Errored probe.
func (p *SpecAgent) Errored() bool {
	if p.spec.Errored == nil || p.code == nil {
		return false
	}
	return p.spec.Errored(&p.view)
}

// specCount is the count form derived from a Spec: a CountProtocol whose
// methods are direct projections of the spec's fields. It always
// implements CountConverger, CountOutputter, DeterministicDelta and
// CountInitSampler; the self-loop skip path is opted into via the
// specCountSkip wrapper so that specs without Skip never pay the
// engine's no-op bookkeeping.
type specCount struct {
	spec *Spec
}

// NewSpecCount derives the count form of spec. Like NewSpecAgent it
// panics on a structurally invalid spec.
func NewSpecCount(spec *Spec) CountProtocol {
	if err := spec.validate(); err != nil {
		panic(err)
	}
	if spec.Skip {
		return &specCountSkip{specCount{spec: spec}}
	}
	return &specCount{spec: spec}
}

// N returns the population size.
func (p *specCount) N() int { return p.spec.N }

// Spec returns the underlying transition spec.
func (p *specCount) Spec() *Spec { return p.spec }

// InitCounts returns the deterministic initial configuration. Sampler
// specs have none — the engine resolves them through CountInitSampler
// instead, which is always implemented.
func (p *specCount) InitCounts() map[uint64]int64 {
	if p.spec.Init == nil {
		panic(fmt.Sprintf("sim: Spec %q has an initialization sampler; run it through an engine", p.spec.Name))
	}
	return p.spec.Init()
}

// InitCountsSample implements CountInitSampler: the one-shot
// initialization draw for sampler specs, the plain Init otherwise.
func (p *specCount) InitCountsSample(r *rng.Rand) map[uint64]int64 {
	return p.spec.initCounts(r)
}

// Delta applies the spec's transition function.
func (p *specCount) Delta(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
	return p.spec.Delta(qu, qv, r)
}

// DeltaDet exposes the deterministic fragment of the rule as the batch
// planner's transition matrix: every pair not claimed by the spec's
// Randomized predicate resolves to a single successor pair. Memoized
// specs answer both the classification and the successors in one probe.
func (p *specCount) DeltaDet(qu, qv uint64) (uint64, uint64, bool) {
	if m := p.spec.Memo; m != nil {
		return m.DeltaDet(qu, qv)
	}
	if p.spec.randomized(qu, qv) {
		return 0, 0, false
	}
	a, b := p.spec.Delta(qu, qv, nil)
	return a, b, true
}

// ShardDelta implements ShardedDelta: the spec's own hook when set, k
// aliases of a declared-pure Delta otherwise. Specs with neither return
// nil, and the sharded planner resolves their randomized pairs
// serially.
func (p *specCount) ShardDelta(k int) ([]func(qu, qv uint64, r *rng.Rand) (uint64, uint64), func() map[uint64]uint64) {
	if p.spec.ShardDelta != nil {
		return p.spec.ShardDelta(k)
	}
	if p.spec.PureDelta {
		ds := make([]func(qu, qv uint64, r *rng.Rand) (uint64, uint64), k)
		for i := range ds {
			ds[i] = p.spec.Delta
		}
		return ds, nil
	}
	return nil, nil
}

// CountConverged evaluates the spec's convergence predicate.
func (p *specCount) CountConverged(c *CountConfig) bool {
	return p.spec.Converged != nil && p.spec.Converged(c)
}

// StateOutput applies the spec's output function.
func (p *specCount) StateOutput(q uint64) int64 {
	if p.spec.Output == nil {
		return 0
	}
	return p.spec.Output(q)
}

// specCountSkip additionally exposes the certain-no-op predicate for
// specs that opted into the engine's self-loop skip path.
type specCountSkip struct {
	specCount
}

// SelfLoop implements SelfLooper via the spec's (declared or derived)
// no-op predicate.
func (p *specCountSkip) SelfLoop(qu, qv uint64) bool {
	return p.spec.selfLoop(qu, qv)
}
