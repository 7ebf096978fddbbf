// Count-based simulation: the CountEngine simulates a population
// protocol directly on its configuration — the vector of per-state agent
// counts — instead of on an array of n agents.
//
// For protocols whose agents are exchangeable given their state (the
// configuration view of the population-protocol Markov chain), one
// interaction of the paper's uniform scheduler draws an ordered pair of
// distinct agents uniformly at random; projected onto states, the
// initiator/responder state pair (i, j) occurs with probability
// proportional to c[i]·c[j] for i ≠ j and c[i]·(c[i]−1) on the diagonal.
// The CountEngine samples exactly that distribution from a cached
// cumulative (Fenwick) sampler over the counts that is incrementally
// repaired as transitions move agents between states, so memory is
// O(|occupied states|) and a step costs O(log k) — independent of n.
//
// Protocols that additionally implement SelfLooper get a second fast
// path: pairs whose transition is certainly the identity ("certain
// no-ops", which dominate late in epidemic-style runs) are never drawn
// individually. The engine tracks the total weight of certain-no-op
// pairs, advances the interaction clock over whole runs of them with one
// geometric jump, and then draws the next pair conditioned on being
// productive. A run is then dominated by the number of state-changing
// interactions (e.g. exactly n−1 for a one-way epidemic) rather than by
// the Θ(n log n) scheduler draws of the agent-array engine.
package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"popcount/internal/rng"
	"popcount/internal/sim/countdist"
)

// CountProtocol is a population protocol in configuration (count) form:
// a finite state alphabet, an initial configuration, and a transition
// function over state codes. State codes are opaque uint64 values chosen
// by the protocol; the engine discovers the occupied alphabet lazily.
type CountProtocol interface {
	// N returns the population size.
	N() int
	// InitCounts returns the initial configuration as a map from state
	// code to multiplicity. Multiplicities must be positive and sum to
	// N().
	InitCounts() map[uint64]int64
	// Delta applies the transition δ(qu, qv) for an interaction whose
	// initiator is in state qu and responder in state qv, returning the
	// successor states. The generator provides synthetic coins; the
	// engine calls Delta once per state-changing interaction candidate.
	Delta(qu, qv uint64, r *rng.Rand) (qu2, qv2 uint64)
}

// CountInitSampler is an optional CountProtocol hook: protocols whose
// agents draw a random value at their first interaction can instead
// pre-sample the whole population's draws once, at engine construction,
// from the engine's generator (the principle of deferred decisions — an
// agent's pending value is never read before its first interaction, so
// the trajectory distribution is unchanged). The engine prefers this
// hook over InitCounts when implemented. It is how a Spec's InitSample
// reaches the count engine.
type CountInitSampler interface {
	InitCountsSample(r *rng.Rand) map[uint64]int64
}

// CountConverger is implemented by count protocols that can report
// whether a configuration is a desired (converged) one. The engine calls
// it only every Config.CheckEvery interactions; the check may scan all
// occupied states.
type CountConverger interface {
	CountConverged(c *CountConfig) bool
}

// CountOutputter is implemented by count protocols whose states produce
// an integer output (the output function ω of the paper, per state
// rather than per agent).
type CountOutputter interface {
	StateOutput(q uint64) int64
}

// SelfLooper is the optional CountProtocol fast path. SelfLoop reports
// whether δ(qu, qv) is *certainly* the identity — same successor states,
// no synthetic coins consumed. It must be sound (never true for a pair
// that could change state or draw randomness) but may be incomplete:
// returning false for an actual no-op only costs the engine an explicit
// draw. Protocols with small occupied alphabets and no-op-dominated
// equilibria (epidemics, junta processes) gain the most; protocols with
// large alphabets (phase clocks, leader election) typically should not
// implement it — maintaining the no-op pair weights costs more than the
// skipped draws save.
type SelfLooper interface {
	SelfLoop(qu, qv uint64) bool
}

// ErrCountScheduler is returned when a CountEngine is configured with a
// scheduler it has no count-level dynamics for: the configuration view
// is only equivalent to the agent view when agents in the same state
// are exchangeable under the scheduler. That holds for the paper's
// uniform scheduler always, and for the ring scheduler exactly when
// the protocol's spec certifies Spec.RingExchangeable (single-source
// monotone spread); biased and matching schedulers, and the torus and
// Kronecker graphs (where cluster geometry matters), break it.
var ErrCountScheduler = errors.New("sim: count engine does not support this scheduler")

// MaxCountPopulation bounds the count engine's population size: the
// engine's pair-weight arithmetic works in int64 over n·(n−1) ordered
// pairs, so n is capped at 2³¹ — overflow would otherwise silently
// disable the self-loop skip and corrupt sampling bounds rather than
// fail loudly.
const MaxCountPopulation = 1 << 31

// CountConfig is a population configuration: the multiset of agent
// states, stored as counts over the occupied alphabet. It is owned and
// mutated by a CountEngine; protocols receive it read-only in their
// convergence predicates.
type CountConfig struct {
	codes  []uint64       // dense index -> state code, in discovery order
	counts []int64        // dense index -> number of agents in the state
	index  map[uint64]int // state code -> dense index
	n      int64
	s      *countdist.Sampler32 // cumulative sampler over counts (total n ≤ 2³¹)

	// dense caches index for codes below denseCodeCap: dense[code] is
	// index+1, zero means unregistered. Interner-backed specs emit
	// first-sight-dense codes, so for them this turns the successor
	// lookup on every state-changing interaction into one array load
	// instead of a map probe. The map stays authoritative: every
	// registration writes both, and any code ≥ denseCodeCap (raw packed
	// state, shard-provisional tags) is served by the map alone.
	dense []int32
}

// denseCodeCap bounds the code range the dense index cache covers —
// 2²¹ slots is an 8 MiB worst case for a protocol whose codes are
// small but sparse, and interned alphabets at the engine's practical
// sizes sit far below it.
const denseCodeCap = 1 << 21

// N returns the population size.
func (c *CountConfig) N() int64 { return c.n }

// Count returns the number of agents in the state with the given code
// (zero for states never occupied).
func (c *CountConfig) Count(code uint64) int64 {
	if i, ok := c.index[code]; ok {
		return c.counts[i]
	}
	return 0
}

// ForEach calls f for every currently occupied state.
func (c *CountConfig) ForEach(f func(code uint64, count int64)) {
	for i, cnt := range c.counts {
		if cnt > 0 {
			f(c.codes[i], cnt)
		}
	}
}

// States returns the number of currently occupied states.
func (c *CountConfig) States() int {
	k := 0
	for _, cnt := range c.counts {
		if cnt > 0 {
			k++
		}
	}
	return k
}

// Sum returns the total agent count Σ counts. It equals N() at all times
// — population protocols conserve agents — and exists so tests and fuzz
// targets can assert the invariant.
func (c *CountConfig) Sum() int64 {
	var s int64
	for _, cnt := range c.counts {
		s += cnt
	}
	return s
}

// CountEngine simulates a CountProtocol on its configuration. It shares
// Config/Result semantics and the convergence-driving loop with the
// agent-array Engine: MaxInteractions, CheckEvery, Observe, Interrupt
// and ConfirmWindow all behave identically, and Config.DisableBatch
// disables the self-loop skip path (for differential testing), leaving
// the per-interaction categorical sampling path.
type CountEngine struct {
	engineCore
	p    CountProtocol
	conv CountConverger // nil when the protocol has no predicate
	sl   SelfLooper     // nil when unsupported or disabled
	r    *rng.Rand
	c    *CountConfig
	n    int64 // population size

	// ring is the spec's self-loop predicate when the engine runs the
	// ring-restricted dynamics (GraphScheduler of GraphKindRing over a
	// RingExchangeable spec), nil for the clique dynamics. In ring mode
	// the configuration is a contiguous arc of the spreading state, so
	// the boundary-pair weight replaces the clique pair weights.
	ring func(qu, qv uint64) bool

	// Self-loop skip state (allocated only when sl != nil). For each
	// dense state index i:
	//   noopRow[i] = Σ_j SelfLoop(i,j)·counts[j]
	//   diag[i]    = SelfLoop(i,i)
	//   elig(i)    = n−1 − noopRow[i] + diag[i]   (eligible responders)
	// and rowW holds counts[i]·elig(i), so rowW.Total() is the weight of
	// productive ordered pairs. noopOut[i]/noopIn[i] are the sorted
	// adjacency lists of the (sparse) certain-no-op relation.
	rowW    *countdist.Sampler
	noopRow []int64
	diag    []bool
	noopOut [][]int32
	noopIn  [][]int32

	// Batch-stepping state (allocated only when Config.BatchSteps): the
	// multinomial epoch planner of countbatch.go.
	bp *batchPlanner

	// Intra-run sharding state (allocated only when Config.Shards ≥ 2):
	// the block partition, worker pool and per-block streams of
	// countshard.go.
	sr *shardRunner

	// fspec is the protocol's transition spec, resolved at construction
	// when a fault plan is active (fault targets and the error probe
	// are defined over the spec), nil without faults.
	fspec *Spec

	// occ lists the dense indices of currently occupied states in
	// ascending order. The interned product-state specs discover far
	// more states over a run than are ever occupied at once (a moving
	// synchronization front abandons states permanently), so the epoch
	// planner iterates this list instead of the full discovery history —
	// O(occupied²) per epoch instead of O(discovered·occupied). Ascending
	// order matters: it keeps the planner's conditional-binomial
	// decomposition order, and with it the random stream, bit-for-bit
	// identical to a scan over the dense arrays.
	occ []int

	// trackOcc gates occ maintenance. Only the batch planner, the shard
	// runner and the fault plane read the list — all fixed at
	// construction — so the plain sequential engine skips the sorted
	// splice its zero-crossing-heavy protocols (CountExact crosses on
	// nearly every interaction) would otherwise pay per apply.
	trackOcc bool

	stats EngineStats
}

// EngineStats are deterministic, machine-independent counters of one
// count-engine run: equal protocols, seeds and Step sequences produce
// equal stats on any machine, which is what lets the CI perf gate
// (cmd/benchdiff) detect dynamics drift without depending on the
// runner's machine class.
type EngineStats struct {
	// DeltaCalls counts transition-rule invocations (certain no-ops the
	// skip path jumps over and bulk-applied deterministic pairs of the
	// batch planner are exactly the interactions NOT counted here).
	DeltaCalls int64
	// Epochs counts applied batch epochs, including reused second
	// halves (zero without Config.BatchSteps).
	Epochs int64
	// Violations counts safety-net trips of the batch planner's
	// post-leap drift check.
	Violations int64
	// HalfReuses counts second half-epochs whose already-sampled counts
	// passed the post-leap recheck after the retried first half and
	// were applied as-is (the Anderson-style conditional reuse).
	HalfReuses int64
	// HalfDiscards counts second half-epochs that had to be discarded
	// and re-planned — the recheck failed, or the first half did not
	// complete at its sampled size.
	HalfDiscards int64
	// ShardEpochs counts batch epochs planned by the sharded path
	// (zero unless Config.Shards ≥ 2). Like every field here it is a
	// function of (protocol, seed, Shards, Step sequence) only — never
	// of GOMAXPROCS or scheduling.
	ShardEpochs int64
	// ShardBlocks counts initiator-row blocks across all sharded
	// epochs' resolve passes.
	ShardBlocks int64
	// MergeConflicts counts sharded epochs whose merged result tripped
	// the post-leap safety net and fell back to the serial
	// half-splitting plan application.
	MergeConflicts int64
	// StealEvents counts blocks beyond the shard worker count in
	// fanned-out passes — Σ max(0, blocks−Shards) — the deterministic
	// measure of how much work was available for stealing.
	StealEvents int64
}

// Stats returns the engine's deterministic run counters.
func (e *CountEngine) Stats() EngineStats { return e.stats }

// NewCountEngine validates p and cfg and returns a count engine
// positioned at interaction 0. cfg.Scheduler must be nil, the uniform
// scheduler, or a ring GraphScheduler over a RingExchangeable spec
// (ErrCountScheduler otherwise).
func NewCountEngine(p CountProtocol, cfg Config) (*CountEngine, error) {
	n := p.N()
	if n < 2 {
		return nil, ErrTooSmall
	}
	if int64(n) > MaxCountPopulation {
		return nil, fmt.Errorf("sim: count engine population %d exceeds %d (int64 pair-weight bound)", n, int64(MaxCountPopulation))
	}
	var ringSL func(qu, qv uint64) bool
	if cfg.Scheduler != nil {
		switch sched := cfg.Scheduler.(type) {
		case UniformScheduler:
			// The paper's scheduler: the plain clique dynamics.
		case *GraphScheduler:
			if err := sched.Validate(n); err != nil {
				return nil, err
			}
			if sched.Kind != GraphKindRing {
				return nil, fmt.Errorf("%w: %v graphs have no count form (cluster geometry is not a function of per-state counts)", ErrCountScheduler, sched.Kind)
			}
			sp, ok := p.(interface{ Spec() *Spec })
			if !ok || !sp.Spec().RingExchangeable {
				return nil, fmt.Errorf("%w: ring dynamics need a RingExchangeable spec (got %T)", ErrCountScheduler, p)
			}
			if cfg.BatchSteps || cfg.Shards >= 2 {
				return nil, fmt.Errorf("%w: ring dynamics have no batched or sharded form", ErrCountScheduler)
			}
			if cfg.Faults != nil {
				return nil, fmt.Errorf("%w: fault plans require the uniform scheduler", ErrCountScheduler)
			}
			ringSL = sp.Spec().selfLoop
		default:
			return nil, ErrCountScheduler
		}
	}
	cfg = normalizeConfig(cfg, n)
	e := &CountEngine{
		engineCore: engineCore{cfg: cfg, convAt: -1},
		p:          p,
		r:          rng.New(cfg.Seed),
		n:          int64(n),
		ring:       ringSL,
	}
	if !cfg.DisableBatch && e.ring == nil {
		e.sl, _ = p.(SelfLooper)
	}
	e.conv, _ = p.(CountConverger)
	if e.sl != nil {
		e.rowW = countdist.NewSampler(8)
	}
	if cfg.BatchSteps {
		e.bp = newBatchPlanner(p, cfg, e.n)
	}
	if cfg.Shards >= 2 {
		if !cfg.BatchSteps {
			return nil, fmt.Errorf("sim: Config.Shards=%d requires BatchSteps — only batch epochs shard", cfg.Shards)
		}
		e.sr = newShardRunner(e, cfg)
	}
	if cfg.Faults != nil {
		sp, ok := p.(interface{ Spec() *Spec })
		if !ok {
			return nil, fmt.Errorf("%w: count protocol %T is not spec-backed — fault transformations are defined over a Spec's state domain", ErrFaultPlan, p)
		}
		fs, err := compileFaults(cfg.Faults, n, cfg)
		if err != nil {
			return nil, err
		}
		e.fs, e.fspec = fs, sp.Spec()
	}
	e.trackOcc = e.bp != nil || e.sr != nil || e.fs != nil

	// The one-shot initialization sampler (when implemented) runs here,
	// at a fixed point of the random stream before any interaction.
	var init map[uint64]int64
	if is, ok := p.(CountInitSampler); ok {
		init = is.InitCountsSample(e.r)
	} else {
		init = p.InitCounts()
	}
	codes := make([]uint64, 0, len(init))
	var sum int64
	for code, cnt := range init {
		if cnt <= 0 {
			return nil, fmt.Errorf("sim: count protocol initial count %d for state %#x", cnt, code)
		}
		codes = append(codes, code)
		sum += cnt
	}
	if sum != e.n {
		return nil, fmt.Errorf("sim: count protocol initial counts sum to %d, want n=%d", sum, n)
	}
	// Map iteration order is randomized; sort so state discovery — and
	// with it the engine's sampling stream — is deterministic per seed.
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	e.c = &CountConfig{
		index: make(map[uint64]int, len(codes)),
		n:     e.n,
		s:     countdist.NewSampler32(len(codes)),
	}
	for _, code := range codes {
		e.shift(e.stateIndex(code), init[code])
	}
	return e, nil
}

// Protocol returns the protocol under simulation.
func (e *CountEngine) Protocol() CountProtocol { return e.p }

// Counts returns the current configuration. The caller must not retain
// it across Step calls if it mutates the engine concurrently; within one
// goroutine, reading it between steps is the intended use.
func (e *CountEngine) Counts() *CountConfig { return e.c }

// Converged reports whether the protocol's convergence predicate holds
// for the current configuration (false for protocols without one).
func (e *CountEngine) Converged() bool {
	return e.conv != nil && e.conv.CountConverged(e.c)
}

// PluralityOutput returns the output of the most populated state — at
// convergence, the consensus output. ok is false when the protocol has
// no output function.
func (e *CountEngine) PluralityOutput() (out int64, ok bool) {
	o, isOut := e.p.(CountOutputter)
	if !isOut {
		return 0, false
	}
	best := int64(-1)
	var bestCode uint64
	for i, cnt := range e.c.counts {
		if cnt > best {
			best = cnt
			bestCode = e.c.codes[i]
		}
	}
	if best <= 0 {
		return 0, false
	}
	return o.StateOutput(bestCode), true
}

// RunToConvergence drives the simulation from its current position until
// the convergence predicate holds (plus the optional confirmation
// window), the interaction cap is reached, or Interrupt fires.
func (e *CountEngine) RunToConvergence() (Result, error) {
	return e.runToConvergence(e)
}

// Step executes exactly count interactions without convergence checks,
// in multinomial epochs when batch stepping is enabled (Config.
// BatchSteps) and per interaction otherwise. With a fault plan,
// scheduled events interleave at their exact interaction times — batch
// epochs are truncated at fault boundaries, so the batched mode
// executes the same schedule as the exact modes.
func (e *CountEngine) Step(count int64) {
	if count <= 0 {
		return
	}
	if e.fs != nil {
		e.stepFaulted(count, e.stepRaw, e)
		return
	}
	e.stepRaw(count)
}

// stepRaw is the fault-free stepping body.
func (e *CountEngine) stepRaw(count int64) {
	if e.ring != nil {
		e.stepRing(count)
		return
	}
	if e.sr != nil {
		e.stepBatchedSharded(count)
		return
	}
	if e.bp != nil {
		e.stepBatched(count)
		return
	}
	e.stepExact(count)
}

// stepRing is the ring-restricted dynamics over a RingExchangeable
// spec. The spreading state occupies one contiguous arc, so of the 2n
// equiprobable directed ring-adjacent draws only the arc's two
// boundary adjacencies can be productive: 2 directed draws per
// orientation class ((lo, hi) and (hi, lo)), each productive exactly
// when the spec's no-op predicate rejects it. Runs of no-op draws are
// applied as one geometric jump of the interaction clock, mirroring
// the clique engine's skip path.
func (e *CountEngine) stepRing(count int64) {
	rem := count
	total := 2 * e.n // directed ring-adjacent (agent, direction) draws
	for rem > 0 {
		lo, hi, k := e.ringBoundary()
		if k > 2 {
			panic("sim: RingExchangeable contract violated: more than two occupied states")
		}
		var w int64
		if k == 2 {
			if !e.ring(lo, hi) {
				w += 2
			}
			if !e.ring(hi, lo) {
				w += 2
			}
		}
		if w == 0 {
			// Fully spread (or a single frozen state): the remaining
			// interactions pass in one jump.
			e.t += rem
			return
		}
		if w < total {
			skip := geomSkip(e.r, float64(w)/float64(total))
			if skip >= rem {
				e.t += rem
				return
			}
			e.t += skip
			rem -= skip
		}
		qu, qv := lo, hi
		switch {
		case w == 4:
			// Both orientations productive and equally weighted.
			if e.r.Bool() {
				qu, qv = hi, lo
			}
		case e.ring(lo, hi):
			// Only (hi, lo) is productive.
			qu, qv = hi, lo
		}
		i, j := e.c.index[qu], e.c.index[qv]
		a, b := e.p.Delta(qu, qv, e.r)
		e.apply(i, j, a, b)
		e.stats.DeltaCalls++
		e.t++
		rem--
	}
}

// ringBoundary scans the configuration for its occupied states,
// returning the smallest and largest occupied codes and the occupied
// count. A RingExchangeable trajectory has at most two occupied
// states (the spreading state and the one it displaces).
func (e *CountEngine) ringBoundary() (lo, hi uint64, k int) {
	for i, cnt := range e.c.counts {
		if cnt <= 0 {
			continue
		}
		code := e.c.codes[i]
		if k == 0 {
			lo, hi = code, code
		} else if code < lo {
			lo = code
		} else if code > hi {
			hi = code
		}
		k++
	}
	return lo, hi, k
}

// stepEach is the per-interaction path: one categorical pair draw and
// one Delta call per interaction.
func (e *CountEngine) stepEach(count int64) {
	for k := int64(0); k < count; k++ {
		i, j := e.samplePair()
		a, b := e.p.Delta(e.c.codes[i], e.c.codes[j], e.r)
		e.apply(i, j, a, b)
	}
	e.stats.DeltaCalls += count
	e.t += count
}

// stepSkip is the self-loop skip path: runs of certain-no-op
// interactions are applied as one geometric jump of the interaction
// clock, and only productive pair candidates are drawn explicitly.
func (e *CountEngine) stepSkip(count int64) {
	rem := count
	total := e.n * (e.n - 1)
	for rem > 0 {
		wProd := e.rowW.Total()
		if wProd <= 0 {
			// Every pair is a certain no-op: the configuration is
			// frozen, the remaining interactions pass in one jump.
			e.t += rem
			return
		}
		if wProd < total {
			skip := geomSkip(e.r, float64(wProd)/float64(total))
			if skip >= rem {
				e.t += rem
				return
			}
			e.t += skip
			rem -= skip
		}
		// One pair, conditioned on not being a certain no-op. The row
		// weight counts[i]·elig(i) factorizes, so one draw selects both
		// the initiator state and the responder's eligible slot.
		z := e.r.Int64n(wProd)
		i := e.rowW.Find(z)
		y := (z - e.rowW.Prefix(i)) % e.elig(i)
		j := e.sampleResponder(i, y)
		a, b := e.p.Delta(e.c.codes[i], e.c.codes[j], e.r)
		e.apply(i, j, a, b)
		e.stats.DeltaCalls++
		e.t++
		rem--
	}
}

// geomSkip samples the number of consecutive certain-no-op interactions
// before the next productive candidate: a Geometric(p) failure count,
// where p is the probability that a uniform pair draw is productive.
// Requires 0 < p <= 1.
func geomSkip(r *rng.Rand, p float64) int64 {
	lnq := math.Log1p(-p)
	if lnq == 0 {
		return 0 // p ≈ 1: no room for no-ops
	}
	u := (float64(r.Uint64()>>11) + 1) / (1 << 53) // uniform in (0, 1]
	k := math.Log(u) / lnq
	if !(k < math.MaxInt64/2) { // also catches NaN/+Inf
		return math.MaxInt64 / 2
	}
	return int64(k)
}

// samplePair draws the initiator and responder states of one uniform
// ordered pair of distinct agents, returned as dense indices.
func (e *CountEngine) samplePair() (int, int) { return e.samplePairR(e.r) }

// samplePairR is samplePair over an explicit generator — the fault
// plane's adversaries draw from the fault stream, the hot path from the
// scheduler stream, with identical draw order either way.
func (e *CountEngine) samplePairR(r *rng.Rand) (int, int) {
	i := e.c.s.Find(r.Int64n(e.n))
	return i, e.responderIndex(i, r)
}

// responderIndex draws the responder state for an initiator in dense
// state i, uniform among the n−1 agents other than the initiator:
// positions below the initiator's block are unchanged, the initiator's
// block loses one slot, positions above shift by one.
func (e *CountEngine) responderIndex(i int, r *rng.Rand) int {
	c := e.c
	y := r.Int64n(e.n - 1)
	pre := c.s.Prefix(i)
	switch {
	case y < pre:
		return c.s.Find(y)
	case y < pre+c.counts[i]-1:
		return i
	default:
		return c.s.Find(y + 1)
	}
}

// sampleResponder maps y — uniform over the elig(i) eligible responder
// slots for an initiator in state i — to the responder's dense state
// index. Eligible slots are the full count ordering minus the exclusion
// intervals: the blocks of states that certainly no-op with i, plus one
// slot of i's own block for the initiator itself (already covered when
// SelfLoop(i,i)). Exclusions are walked in dense order; each either
// absorbs y (y falls before it) or shifts the remaining positions.
func (e *CountEngine) sampleResponder(i int, y int64) int {
	c := e.c
	var removed int64
	selfDone := e.diag[i]
	selfStart := c.s.Prefix(i) + c.counts[i] - 1
	for _, jj := range e.noopOut[i] {
		j := int(jj)
		if !selfDone && j > i {
			if y < selfStart-removed {
				return c.s.Find(y + removed)
			}
			removed++
			selfDone = true
		}
		start := c.s.Prefix(j)
		if y < start-removed {
			return c.s.Find(y + removed)
		}
		removed += c.counts[j]
	}
	if !selfDone {
		if y < selfStart-removed {
			return c.s.Find(y + removed)
		}
		removed++
	}
	return c.s.Find(y + removed)
}

// apply moves the interaction's two agents from their old states to the
// successor states returned by Delta. Successor codes are resolved
// against the two source states first — adoption-style transitions
// (initiator takes the responder's state and vice versa) then never
// touch the code index map — and the four ±1 deltas are netted so each
// affected slot is repaired once.
func (e *CountEngine) apply(i, j int, a, b uint64) {
	c := e.c
	if a == c.codes[i] && b == c.codes[j] {
		return
	}
	ia := e.lookup(a, i, j)
	ib := e.lookup(b, i, j)
	var idxs [4]int
	var ds [4]int64
	k := 0
	net := func(idx int, d int64) {
		for m := 0; m < k; m++ {
			if idxs[m] == idx {
				ds[m] += d
				return
			}
		}
		idxs[k], ds[k] = idx, d
		k++
	}
	net(i, -1)
	net(j, -1)
	net(ia, 1)
	net(ib, 1)
	for m := 0; m < k; m++ {
		if ds[m] != 0 {
			e.shift(idxs[m], ds[m])
		}
	}
}

// lookup resolves a successor state code to its dense index, checking
// the interaction's two source states before the map.
func (e *CountEngine) lookup(code uint64, i, j int) int {
	c := e.c
	if code == c.codes[i] {
		return i
	}
	if code == c.codes[j] {
		return j
	}
	return e.stateIndex(code)
}

// elig returns the eligible (non-certain-no-op) responder weight for an
// initiator in dense state i.
func (e *CountEngine) elig(i int) int64 {
	el := e.n - 1 - e.noopRow[i]
	if e.diag[i] {
		el++
	}
	return el
}

// shift adjusts state idx's count by d, repairing the cumulative
// sampler, the occupied-index list and — on the skip path — the no-op
// aggregates of every affected row.
func (e *CountEngine) shift(idx int, d int64) {
	c := e.c
	if e.sl == nil {
		e.occShift(idx, d)
		c.s.Add(idx, d)
		return
	}
	e.rowW.Add(idx, -c.counts[idx]*e.elig(idx))
	for _, ii := range e.noopIn[idx] {
		i := int(ii)
		if i == idx {
			e.noopRow[idx] += d
			continue
		}
		// Row i loses/gains d eligible responders in state idx.
		e.rowW.Add(i, -c.counts[i]*d)
		e.noopRow[i] += d
	}
	e.occShift(idx, d)
	c.s.Add(idx, d)
	e.rowW.Add(idx, c.counts[idx]*e.elig(idx))
}

// occShift applies the count change and keeps the sorted occupied list
// in step with zero crossings. Occupied alphabets are small (the moving
// front of a synchronized protocol), so the O(occupied) splice on a
// crossing is cheaper than any tree would be. A crossing only marks the
// batch planner's slot matrix dirty; the planner resyncs it when it
// next plans.
func (e *CountEngine) occShift(idx int, d int64) {
	c := e.c
	was := c.counts[idx]
	c.counts[idx] = was + d
	if !e.trackOcc {
		return
	}
	switch {
	case was == 0 && c.counts[idx] > 0:
		i := sort.SearchInts(e.occ, idx)
		e.occ = append(e.occ, 0)
		copy(e.occ[i+1:], e.occ[i:])
		e.occ[i] = idx
	case was > 0 && c.counts[idx] == 0:
		i := sort.SearchInts(e.occ, idx)
		e.occ = append(e.occ[:i], e.occ[i+1:]...)
	default:
		return
	}
	if e.bp != nil && e.bp.slots != nil {
		e.bp.slots.dirty = true
	}
}

// stateIndex returns the dense index for a state code, registering the
// state on first sight.
func (e *CountEngine) stateIndex(code uint64) int {
	c := e.c
	// Registration grows the dense cache past every small code it
	// records, so for code < len(dense) the cache's answer — including
	// "unregistered" — is definitive and the map is never probed.
	if code < uint64(len(c.dense)) {
		if v := c.dense[code]; v != 0 {
			return int(v) - 1
		}
	} else if code >= denseCodeCap {
		if i, ok := c.index[code]; ok {
			return i
		}
	}
	idx := len(c.codes)
	c.codes = append(c.codes, code)
	c.counts = append(c.counts, 0)
	c.index[code] = idx
	if code < denseCodeCap {
		if need := int(code) + 1; need > len(c.dense) {
			if need > cap(c.dense) {
				grown := make([]int32, need, max(2*cap(c.dense), need))
				copy(grown, c.dense)
				c.dense = grown
			} else {
				c.dense = c.dense[:need]
			}
		}
		c.dense[code] = int32(idx) + 1
	}
	c.s.Append(0)
	if e.sl != nil {
		e.extendNoop(code, idx)
	}
	return idx
}

// extendNoop grows the certain-no-op relation by the freshly discovered
// state. The new state has count 0, so no aggregate weights change yet;
// only the adjacency lists and the new row's sums are built. Appending
// keeps the lists sorted: idx is the largest dense index so far.
func (e *CountEngine) extendNoop(code uint64, idx int) {
	c := e.c
	e.noopRow = append(e.noopRow, 0)
	e.diag = append(e.diag, false)
	e.noopOut = append(e.noopOut, nil)
	e.noopIn = append(e.noopIn, nil)
	e.rowW.Append(0)
	for j, cj := range c.codes {
		if e.sl.SelfLoop(code, cj) {
			e.noopOut[idx] = append(e.noopOut[idx], int32(j))
			e.noopIn[j] = append(e.noopIn[j], int32(idx))
			e.noopRow[idx] += c.counts[j]
			if j == idx {
				e.diag[idx] = true
			}
		}
		if j != idx && e.sl.SelfLoop(cj, code) {
			e.noopOut[j] = append(e.noopOut[j], int32(idx))
			e.noopIn[idx] = append(e.noopIn[idx], int32(j))
		}
	}
}

// RunCount simulates p under cfg on the count engine until it converges
// or the interaction cap is reached.
func RunCount(p CountProtocol, cfg Config) (Result, error) {
	e, err := NewCountEngine(p, cfg)
	if err != nil {
		return Result{}, err
	}
	return e.RunToConvergence()
}

// CountFactory builds a fresh count protocol instance for trial number
// trial. The factory must return an independent instance every call.
type CountFactory func(trial int) CountProtocol

// CountTrialRun couples a trial's finished engine with its result, so
// callers can read the final configuration after the run.
type CountTrialRun struct {
	Engine *CountEngine
	Result Result
}

// CountTrialOptions configures RunCountTrials beyond the per-run Config.
type CountTrialOptions struct {
	// Parallelism bounds concurrent trials (≤ 0 selects 1).
	Parallelism int
	// Observe, if non-nil, receives every trial's observations tagged
	// with the trial index and engine. It overrides Config.Observe and
	// must be safe for concurrent use when Parallelism > 1.
	Observe func(trial int, e *CountEngine, obs Observation)
}

// RunCountTrials runs independent trials of a count protocol in parallel
// and returns the per-trial runs in trial order. Trial i uses seed
// TrialSeed(cfg.Seed, i), exactly like RunTrials, so agent-engine and
// count-engine ensembles line up trial for trial.
func RunCountTrials(f CountFactory, trials int, cfg Config, opt CountTrialOptions) ([]CountTrialRun, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("sim: non-positive trial count %d", trials)
	}
	runs := make([]CountTrialRun, trials)
	observe := opt.Observe
	err := forEachTrial(trials, opt.Parallelism, func(i int) error {
		c := cfg
		c.Seed = TrialSeed(cfg.Seed, i)
		// The observer closure is wired before the engine exists, so it
		// captures the engine variable rather than the engine.
		var eng *CountEngine
		if observe != nil {
			c.Observe = func(obs Observation) { observe(i, eng, obs) }
		}
		eng, err := NewCountEngine(f(i), c)
		if err != nil {
			return err
		}
		res, err := eng.RunToConvergence()
		runs[i] = CountTrialRun{Engine: eng, Result: res}
		return err
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// Discovered returns the number of states ever discovered (occupied now
// or in the past) — the size of the engine's dense index space.
func (c *CountConfig) Discovered() int { return len(c.codes) }
