// Package popcount is a library of uniform population protocols for
// counting the population size, reproducing "On Counting the Population
// Size" (Berenbrink, Kaaser, Radzik; PODC 2019).
//
// In the population model, n identical agents interact in uniformly
// random pairs. A uniform protocol's transition function does not depend
// on n — yet the protocols here let every agent learn n, exactly or
// within a factor of two:
//
//   - Approximate (Theorem 1.1) converges in O(n log² n) interactions,
//     using O(log n · log log n) states, to either ⌊log₂ n⌋ or ⌈log₂ n⌉
//     at every agent, w.h.p.
//   - CountExact (Theorem 2) stabilizes on the exact n in the optimal
//     O(n log n) interactions using Õ(n) states, w.h.p.
//   - StableApproximate and StableCountExact (Theorems 1.2 and 2) add
//     error detection and a slow always-correct backup, making the
//     answer correct with probability 1.
//
// The package's high-level functions run a full simulation under the
// uniform random scheduler; the Simulation type offers stepwise control,
// and RunEnsemble drives many independent trials in parallel with
// aggregate statistics. The scheduling assumption itself is pluggable
// (WithScheduler), running progress is observable (WithObserver), and a
// confirmation window (WithConfirmWindow) separates convergence from
// stabilization — Section 1.1's T_C vs T_S distinction, reported through
// Result.Stable and Result.Total. The building blocks (epidemics, junta,
// phase clocks, leader election, load balancing, backups, baselines)
// live in internal packages and are exercised by the experiment suite in
// internal/exp (see DESIGN.md and EXPERIMENTS.md).
package popcount

import (
	"fmt"

	"popcount/internal/baseline"
	"popcount/internal/core"
	"popcount/internal/sim"
)

// Algorithm selects one of the library's counting protocols.
type Algorithm int

// The available algorithms.
const (
	// Approximate is protocol Approximate (Theorem 1.1): every agent
	// outputs ⌊log₂ n⌋ or ⌈log₂ n⌉ w.h.p.
	Approximate Algorithm = iota + 1
	// CountExact is protocol CountExact (Theorem 2): every agent
	// outputs the exact n w.h.p.
	CountExact
	// StableApproximate is the stable hybrid variant of Approximate
	// (Theorem 1.2): correct with probability 1.
	StableApproximate
	// StableCountExact is the stable variant of CountExact (Theorem 2
	// with Appendix F): correct with probability 1.
	StableCountExact
	// TokenBag is the simple Θ(n²)-interaction exact baseline from the
	// paper's introduction.
	TokenBag
	// GeometricEstimate is the O(log n)-state polynomial-factor
	// estimator baseline ([1]-style).
	GeometricEstimate
)

// String returns the algorithm's name.
func (a Algorithm) String() string {
	switch a {
	case Approximate:
		return "approximate"
	case CountExact:
		return "exact"
	case StableApproximate:
		return "stable-approximate"
	case StableCountExact:
		return "stable-exact"
	case TokenBag:
		return "tokenbag"
	case GeometricEstimate:
		return "geometric"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms returns every available algorithm, in declaration order.
func Algorithms() []Algorithm {
	return []Algorithm{Approximate, CountExact, StableApproximate,
		StableCountExact, TokenBag, GeometricEstimate}
}

// ParseAlgorithm resolves an algorithm by its String name.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("%w: %q (valid: approximate, exact, stable-approximate, stable-exact, tokenbag, geometric)", ErrUnknownAlgorithm, name)
}

// EngineKind selects the simulation engine backing a run.
type EngineKind int

const (
	// EngineAgent is the agent-array engine: O(n) memory, one scheduler
	// draw and transition per interaction. It works for every algorithm
	// and every scheduler, and is the default.
	EngineAgent EngineKind = iota
	// EngineCount is the count-based engine: the configuration is
	// simulated directly on per-state agent counts, with memory in the
	// number of states the run discovers (not n) and amortized ~O(1)
	// cost per interaction — population sizes of 10⁸ and beyond become
	// practical. Every algorithm supports it (the core counting
	// protocols' product states are interned over the occupied fragment,
	// see DESIGN.md), but only under the default uniform scheduler.
	EngineCount
	// EngineCountBatched is the count engine's multinomial batch-stepping
	// mode: whole epochs of interactions are projected onto ordered
	// state pairs and applied to the configuration in bulk, for o(1)
	// amortized cost per interaction — another ~500× sustained
	// throughput over EngineCount on epidemic-style chains, unlocking
	// n ≥ 10⁹. The mode is a drift-bounded τ-leaping approximation:
	// distributionally faithful within a few percent (see DESIGN.md),
	// but, unlike EngineCount, not an exact simulation of the chain.
	// Same restrictions as EngineCount (uniform scheduler, no per-agent
	// outputs); tune with WithBatchRounds.
	EngineCountBatched
	// EngineAuto picks EngineCount for GeometricEstimate, whose small,
	// no-op dominated occupied alphabet makes the count form the
	// profitable one, and EngineAgent otherwise (also when a non-uniform
	// scheduler rules the count engine out). It never picks the batched
	// mode — approximate stepping is always an explicit opt-in.
	EngineAuto
)

// String returns the engine kind's name.
func (k EngineKind) String() string {
	switch k {
	case EngineAgent:
		return "agent"
	case EngineCount:
		return "count"
	case EngineCountBatched:
		return "count-batched"
	case EngineAuto:
		return "auto"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// ParseEngineKind resolves an engine kind by its String name.
func ParseEngineKind(name string) (EngineKind, error) {
	for _, k := range []EngineKind{EngineAgent, EngineCount, EngineCountBatched, EngineAuto} {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("%w: unknown engine %q (valid: agent, count, count-batched, auto)", ErrUnsupportedEngine, name)
}

// WithEngine selects the simulation engine (default EngineAgent).
// EngineCount and EngineCountBatched return an error from the run
// constructors when a non-uniform scheduler was requested. Count-engine
// results carry no per-agent output vector (Result.Outputs is nil): the
// configuration is aggregate, and Result.Output reports the output of
// the most populated state — at convergence, the consensus output.
func WithEngine(kind EngineKind) Option { return func(s *settings) { s.engine = kind } }

// WithBatchRounds caps one batch epoch of EngineCountBatched at rounds·n
// interactions (default 1 round; a round is n interactions). Larger
// caps let fully mixed phases pass in fewer epochs; the drift bound
// still sizes every epoch, so the knob rarely matters below n = 10⁸.
// Other engines ignore it.
func WithBatchRounds(rounds int) Option {
	return func(s *settings) { s.batchRounds = rounds }
}

// WithIntraRunParallelism shards each batch epoch of EngineCountBatched
// across the given number of deterministic work streams, executed
// concurrently when cores are available. The default (1) keeps the
// serial planner and is bit-for-bit the pre-sharding engine — every
// committed baseline and conformance pin reproduces unchanged. Values
// ≥ 2 change the run's random-stream layout (results depend on the
// shard count but never on GOMAXPROCS: the same seed and shard count
// give the same trajectory and Stats on any machine) and are rejected
// at construction for any engine other than EngineCountBatched. Counts
// above 256 (sim.MaxShards) are rejected with ErrInvalidN. See
// DESIGN.md, "Sharding a single run".
func WithIntraRunParallelism(shards int) Option {
	return func(s *settings) { s.shards = shards }
}

// Option customizes a simulation or ensemble.
type Option func(*settings)

type settings struct {
	seed          uint64
	maxI          int64
	checkEvery    int64
	confirmWindow int64
	clockM        int
	fastRounds    int
	shift         int
	parallelism   int
	engine        EngineKind
	batchRounds   int
	shards        int
	mkSched       func() Scheduler
	observer      Observer
	observeEvery  int64
	interrupt     func() bool
	faults        FaultPlan
}

func newSettings(opts []Option) settings {
	set := settings{seed: 1}
	for _, o := range opts {
		o(&set)
	}
	return set
}

// WithSeed sets the scheduler seed (default 1). Equal seeds reproduce
// runs bit for bit; ensemble trial i derives its own seed from this base
// deterministically, so ensembles are reproducible too.
func WithSeed(seed uint64) Option { return func(s *settings) { s.seed = seed } }

// WithMaxInteractions caps the simulation length (default: a generous
// multiple of n·log² n chosen by the engine).
func WithMaxInteractions(max int64) Option { return func(s *settings) { s.maxI = max } }

// WithCheckEvery sets the convergence polling interval in interactions
// (default n).
func WithCheckEvery(interval int64) Option { return func(s *settings) { s.checkEvery = interval } }

// WithConfirmWindow keeps a run going for window further interactions
// after convergence is first observed and reports, via Result.Stable,
// whether the desired configuration held throughout — the paper's
// stabilization time T_S as opposed to the convergence time T_C
// (Section 1.1). Result.Total then exceeds Result.Interactions by the
// window length.
func WithConfirmWindow(window int64) Option {
	return func(s *settings) { s.confirmWindow = window }
}

// WithClockM sets the phase-clock constant m (Lemma 5); see DESIGN.md
// for the calibration of the default.
func WithClockM(m int) Option { return func(s *settings) { s.clockM = m } }

// WithFastRounds sets the number of FastLeaderElection rounds (Lemma 7).
func WithFastRounds(rounds int) Option { return func(s *settings) { s.fastRounds = rounds } }

// WithShift sets the Approximation Stage's load-explosion shift
// (DESIGN.md, substitution 1).
func WithShift(shift int) Option { return func(s *settings) { s.shift = shift } }

// WithParallelism bounds the number of concurrently running trials in
// RunEnsemble (default: one per CPU). It has no effect on single runs,
// and no effect on results — ensembles are bit-for-bit reproducible at
// any parallelism.
func WithParallelism(workers int) Option {
	return func(s *settings) { s.parallelism = workers }
}

// WithInterrupt registers a hook the engine polls at every convergence
// check (CheckEvery granularity): when it returns true the run stops
// early at the next poll boundary with Result.Interrupted set. Because
// the stop lands on a poll boundary, a Simulation interrupted this way
// can be snapshotted and later resumed (RunToConvergence continues from
// the current position), which is how popcountd checkpoints long jobs
// without perturbing their trajectory. In RunEnsemble the hook is
// polled alongside the context.
func WithInterrupt(fn func() bool) Option {
	return func(s *settings) { s.interrupt = fn }
}

// Result reports the outcome of a completed simulation.
type Result struct {
	// Converged reports whether the protocol reached its desired
	// configuration within the interaction budget.
	Converged bool
	// Interactions is the number of interactions until convergence was
	// detected (or the budget, if not converged) — the convergence time
	// T_C at CheckEvery granularity.
	Interactions int64
	// Total is the total number of interactions executed. It exceeds
	// Interactions when a confirmation window was requested
	// (WithConfirmWindow).
	Total int64
	// Stable reports whether the desired configuration held at every
	// poll of the confirmation window after first convergence. Without a
	// window it equals Converged.
	Stable bool
	// Output is agent 0's output; at convergence all agents agree. For
	// the approximate protocols it is the log₂-estimate, for the exact
	// protocols and baselines the population-size estimate itself. On
	// the count engine (WithEngine) agents have no identity and Output
	// is the most populated state's output — the consensus output once
	// converged.
	Output int64
	// Estimate is the population-size estimate implied by Output (2^k
	// for the approximate protocols, Output itself otherwise).
	Estimate int64
	// Outputs holds every agent's output. It is nil on the count engine
	// (WithEngine), whose configuration is aggregate: materializing n
	// entries would undo memory that grows with the discovered states,
	// not with n.
	Outputs []int64
	// Interrupted reports that the run was stopped early by context
	// cancellation (RunEnsemble) before reaching convergence or its
	// interaction budget: the result reflects partial progress, not a
	// completed trial.
	Interrupted bool
}

// Count runs the chosen algorithm on a population of n agents until it
// converges (or a generous interaction cap is hit) and returns the
// result.
func Count(alg Algorithm, n int, opts ...Option) (Result, error) {
	s, err := NewSimulation(alg, n, opts...)
	if err != nil {
		return Result{}, err
	}
	return s.RunToConvergence()
}

// EstimateSize runs protocol Approximate and returns the estimated
// population size (2^k with k ∈ {⌊log n⌋, ⌈log n⌉} w.h.p.).
func EstimateSize(n int, opts ...Option) (Result, error) {
	return Count(Approximate, n, opts...)
}

// ExactSize runs protocol CountExact and returns the exact population
// size (w.h.p.; use StableCountExact for probability 1).
func ExactSize(n int, opts ...Option) (Result, error) {
	return Count(CountExact, n, opts...)
}

// validate checks the algorithm/population pair without building the
// O(n) protocol state.
func validate(alg Algorithm, n int) error {
	if n < 2 {
		return fmt.Errorf("%w: population size %d is below 2", ErrInvalidN, n)
	}
	for _, a := range Algorithms() {
		if a == alg {
			return nil
		}
	}
	return fmt.Errorf("%w: %v", ErrUnknownAlgorithm, alg)
}

// Validate checks an algorithm × population × option combination
// without building any O(n) state: it is the O(1) request validation
// the service layer runs at submit time. It runs the checks of
// NewSimulation and RunEnsemble in their order, so a nil error
// guarantees both pass their constructors' validation for the same
// arguments, and a non-nil one is the error they would return.
func Validate(alg Algorithm, n int, opts ...Option) error {
	_, err := newSettings(opts).check(alg, n)
	return err
}

// check validates a run of alg over n agents under the settings and
// resolves its engine kind. The engine checks run first: a request that
// gets both the engine and the population wrong hears about the engine.
func (set settings) check(alg Algorithm, n int) (EngineKind, error) {
	kind, err := set.resolveEngine(alg)
	if err != nil {
		return 0, err
	}
	if err := validate(alg, n); err != nil {
		return 0, err
	}
	if err := set.faults.validate(n); err != nil {
		return 0, err
	}
	return kind, set.validateScheduler(n)
}

// specFor returns the canonical transition spec of a validated alg over
// n agents under the given settings. Every engine form of a run derives
// from this one spec. The core protocols' state spaces grow with n, so
// their specs intern codes over the occupied fragment (see
// internal/core's spec files) instead of packing a fixed-width domain.
func specFor(alg Algorithm, n int, set settings) *sim.Spec {
	cfg := core.Config{N: n, ClockM: set.clockM, FastRounds: set.fastRounds, Shift: set.shift}
	switch alg {
	case Approximate:
		return core.NewApproximateSpec(cfg).Spec
	case CountExact:
		return core.NewCountExactSpec(cfg).Spec
	case StableApproximate:
		return core.NewStableApproximateSpec(cfg, set.faults.CorruptSearch).Spec
	case StableCountExact:
		return core.NewStableCountExactSpec(cfg, set.faults.CorruptSearch).Spec
	case TokenBag:
		return baseline.NewTokenBagSpec(n)
	case GeometricEstimate:
		return baseline.NewGeometricSpec(n)
	}
	panic(fmt.Sprintf("popcount: no spec for unvalidated algorithm %v", alg))
}

// resolveEngine maps the requested engine kind to a concrete one for
// alg, validating the engine × scheduler × fault-plan combination up
// front: an explicit count-engine request errors here — at
// construction, not at Run time — when a non-uniform scheduler was
// registered, and EngineAuto falls back to the agent engine instead of
// erroring. It builds no protocol state.
func (set settings) resolveEngine(alg Algorithm) (EngineKind, error) {
	if set.shards < 0 {
		// A negative shard count is a mistake, not a request for the
		// serial planner: reject it instead of silently ignoring it.
		return 0, fmt.Errorf("%w: WithIntraRunParallelism(%d) — shard count must be non-negative", ErrInvalidN, set.shards)
	}
	if set.shards > sim.MaxShards {
		// Every shard costs its planner blocks up front: refuse an
		// enormous count first, before anything is allocated.
		return 0, fmt.Errorf("%w: WithIntraRunParallelism(%d) — shard count exceeds %d", ErrInvalidN, set.shards, sim.MaxShards)
	}
	// The uniform scheduler, explicit or default, normalizes to nil.
	uniform := set.newSimScheduler() == nil
	if set.faults.Enabled() && !uniform {
		// Dynamic faults are code-to-code transformations over a spec's
		// state domain, applied under the uniform scheduler.
		return 0, fmt.Errorf("%w: fault plans require the default uniform scheduler — drop the WithScheduler override", ErrUnsupportedEngine)
	}
	if set.shards >= 2 && set.engine != EngineCountBatched {
		return 0, fmt.Errorf("%w: WithIntraRunParallelism(%d) requires EngineCountBatched — only batch epochs shard (engine %v requested)", ErrUnsupportedEngine, set.shards, set.engine)
	}
	switch set.engine {
	case EngineAgent:
		return EngineAgent, nil
	case EngineCount, EngineCountBatched:
		if !uniform {
			return 0, fmt.Errorf("%w: %w — rerun with the agent engine or drop the scheduler override", ErrUnsupportedEngine, sim.ErrCountScheduler)
		}
		return set.engine, nil
	case EngineAuto:
		// Auto is conservative: it picks the count engine only for the
		// geometric estimator, whose occupied alphabet is small and
		// no-op dominated. Every other algorithm runs on the count
		// engines when explicitly requested, but its count form pays a
		// Delta call, and for the core protocols interning, on nearly
		// every interaction, so auto keeps it on the agent engine.
		if uniform && alg == GeometricEstimate {
			return EngineCount, nil
		}
		return EngineAgent, nil
	default:
		return 0, fmt.Errorf("%w: unknown engine kind %v", ErrUnsupportedEngine, set.engine)
	}
}

// simConfig translates the settings into the engine configuration of
// one run on the given engine kind — the one place the batched mode's
// knobs are wired.
func (set settings) simConfig(kind EngineKind) sim.Config {
	return sim.Config{
		Seed:            set.seed,
		MaxInteractions: set.maxI,
		CheckEvery:      set.checkEvery,
		ConfirmWindow:   set.confirmWindow,
		Scheduler:       set.newSimScheduler(),
		BatchSteps:      kind == EngineCountBatched,
		BatchMaxRounds:  set.batchRounds,
		Shards:          set.shards,
		Interrupt:       set.interrupt,
		Faults:          set.faults.simPlan(),
	}
}

// Simulation is a stepwise-controlled protocol run, backed by the
// agent-array engine or the count-based engine — exact or batched —
// selected with WithEngine.
type Simulation struct {
	alg  Algorithm
	n    int
	kind EngineKind
	set  settings  // retained for Snapshot's header
	spec *sim.Spec // the run's transition spec, which its engine derives from
	// Exactly one of eng and ceng is non-nil; agent is eng's protocol.
	agent *sim.SpecAgent
	eng   *sim.Engine
	ceng  *sim.CountEngine
}

// NewSimulation builds a protocol instance over n agents, driven by the
// selected simulation engine. Invalid combinations — a non-uniform
// scheduler under an explicit count-engine request, for one — error
// here, not at run time.
func NewSimulation(alg Algorithm, n int, opts ...Option) (*Simulation, error) {
	return newSimulationFrom(alg, n, newSettings(opts))
}

// newSimulationFrom is the settings-level constructor shared by
// NewSimulation and RestoreSimulation. It builds the run's spec once
// and derives the selected engine form from it.
func newSimulationFrom(alg Algorithm, n int, set settings) (*Simulation, error) {
	kind, err := set.check(alg, n)
	if err != nil {
		return nil, err
	}
	s := &Simulation{alg: alg, n: n, kind: kind, set: set, spec: specFor(alg, n, set)}
	cfg := set.simConfig(kind)
	if set.observer != nil {
		// Observations start with the first poll, after the engine
		// below exists.
		cfg.Observe = set.snapshotObserver(alg, 0, func() (int64, bool) {
			if s.ceng != nil {
				return s.ceng.PluralityOutput()
			}
			return s.agent.Output(0), true
		})
	}
	if kind == EngineAgent {
		s.agent = sim.NewSpecAgent(s.spec)
		s.eng, err = sim.NewEngine(s.agent, cfg)
	} else {
		s.ceng, err = sim.NewCountEngine(sim.NewSpecCount(s.spec), cfg)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// EngineStats are deterministic, machine-independent run counters:
// equal algorithms, seeds and run lengths produce equal stats on any
// machine. The batch counters (DeltaCalls through HalfDiscards) are
// zero on the agent engine, whose only counter is the interaction count
// itself; the fault counters are filled on every engine when a fault
// plan is active (WithFaults) and zero otherwise.
type EngineStats struct {
	// DeltaCalls counts transition-rule invocations (the interactions
	// the engine could not skip or bulk-apply).
	DeltaCalls int64
	// Epochs counts applied batch epochs (EngineCountBatched only).
	Epochs int64
	// Violations counts safety-net trips of the batch planner.
	Violations int64
	// HalfReuses counts second half-epochs reused after a post-leap
	// recheck; HalfDiscards counts the ones re-planned instead.
	HalfReuses   int64
	HalfDiscards int64
	// ShardEpochs, ShardBlocks, MergeConflicts and StealEvents describe
	// the sharded planner of WithIntraRunParallelism (zero at the
	// default parallelism of 1): epochs planned by the sharded path,
	// initiator-row blocks across their resolve passes, epochs whose
	// merged result tripped the safety net and replayed serially, and
	// blocks beyond the shard worker count available for work stealing.
	// All four are functions of (algorithm, seed, shard count) only —
	// equal on any machine and at any GOMAXPROCS — which is what lets
	// the multicore CI gate compare differently-pinned runs exactly.
	ShardEpochs    int64
	ShardBlocks    int64
	MergeConflicts int64
	StealEvents    int64

	// FaultEvents counts applied fault events of every kind; Corrupted,
	// Churned and ForcedInteractions break the damage down by family
	// (agents corrupted, agents replaced by churn, adversarial
	// interactions forced).
	FaultEvents        int64
	Corrupted          int64
	Churned            int64
	ForcedInteractions int64
	// Reconvergences counts completed recovery cycles — a corruption or
	// churn event opens a window, the next converged poll closes it —
	// with ReconvergeTotal and ReconvergeMax aggregating the window
	// lengths in interactions (mean = total/count).
	Reconvergences  int64
	ReconvergeTotal int64
	ReconvergeMax   int64
	// ErrorLatency is the number of interactions from the first damage
	// event to the first poll at which the protocol's error flag was
	// raised, or -1 while undetected (only the stable hybrids detect).
	ErrorLatency int64
}

// Stats returns the simulation's deterministic engine counters.
func (s *Simulation) Stats() EngineStats {
	var out EngineStats
	if s.ceng != nil {
		st := s.ceng.Stats()
		out = EngineStats{
			DeltaCalls:     st.DeltaCalls,
			Epochs:         st.Epochs,
			Violations:     st.Violations,
			HalfReuses:     st.HalfReuses,
			HalfDiscards:   st.HalfDiscards,
			ShardEpochs:    st.ShardEpochs,
			ShardBlocks:    st.ShardBlocks,
			MergeConflicts: st.MergeConflicts,
			StealEvents:    st.StealEvents,
		}
	}
	if s.set.faults.Enabled() {
		var fst sim.FaultStats
		if s.ceng != nil {
			fst = s.ceng.FaultStats()
		} else {
			fst = s.eng.FaultStats()
		}
		out.FaultEvents = fst.Events
		out.Corrupted = fst.Corrupted
		out.Churned = fst.Churned
		out.ForcedInteractions = fst.Forced
		out.Reconvergences = fst.Reconvergences
		out.ReconvergeTotal = fst.ReconvergeTotal
		out.ReconvergeMax = fst.ReconvergeMax
		out.ErrorLatency = fst.ErrorLatency
	}
	return out
}

// N returns the population size.
func (s *Simulation) N() int { return s.n }

// Algorithm returns the algorithm under simulation.
func (s *Simulation) Algorithm() Algorithm { return s.alg }

// Engine returns the concrete engine kind backing the simulation
// (never EngineAuto).
func (s *Simulation) Engine() EngineKind { return s.kind }

// Step executes count scheduler steps, using the engine's fast paths
// when available (batched interactions on the agent engine, self-loop
// skipping on the count engine).
func (s *Simulation) Step(count int64) {
	if s.ceng != nil {
		s.ceng.Step(count)
		return
	}
	s.eng.Step(count)
}

// Interactions returns the number of interactions executed so far.
func (s *Simulation) Interactions() int64 {
	if s.ceng != nil {
		return s.ceng.Interactions()
	}
	return s.eng.Interactions()
}

// Converged reports whether the protocol's desired configuration holds.
func (s *Simulation) Converged() bool {
	if s.ceng != nil {
		return s.ceng.Converged()
	}
	return s.eng.Converged()
}

// Errored reports whether a stable protocol variant has detected an
// inconsistency and handed over to its backup (false for algorithms
// without error detection). It works on every engine: the agent adapter
// evaluates the spec's error predicate on its count mirror, the count
// engines on their configuration.
func (s *Simulation) Errored() bool {
	if s.ceng != nil {
		return s.spec.Errored != nil && s.spec.Errored(s.ceng.Counts())
	}
	return s.agent.Errored()
}

// Output returns agent i's current output. On the count engine agents
// have no identity; every i reports the output of the most populated
// state (the consensus output once converged).
func (s *Simulation) Output(i int) int64 {
	if s.ceng != nil {
		out, _ := s.ceng.PluralityOutput()
		return out
	}
	return s.agent.Output(i)
}

// Outputs returns the current outputs of all agents. It is nil on the
// count engine, whose configuration is aggregate: its memory grows
// with the states the run has discovered, not with n, and
// materializing n entries would undo that.
func (s *Simulation) Outputs() []int64 {
	if s.ceng != nil {
		return nil
	}
	return sim.Outputs(s.agent)
}

// RunToConvergence drives the simulation from its current position until
// convergence (plus the optional confirmation window) or the interaction
// cap, and packages the result. It honors prior Step calls.
func (s *Simulation) RunToConvergence() (Result, error) {
	var res sim.Result
	var err error
	if s.ceng != nil {
		res, err = s.ceng.RunToConvergence()
	} else {
		res, err = s.eng.RunToConvergence()
	}
	if err != nil {
		return Result{}, err
	}
	return s.result(res), nil
}

// result converts an engine result into the public form.
func (s *Simulation) result(res sim.Result) Result {
	return publicResult(s.alg, res, s.Output(0), s.Outputs())
}

// publicResult packages one run's engine result with its output (agent
// 0's, or the count engines' plurality output) and per-agent outputs
// (nil on the count engines).
func publicResult(alg Algorithm, res sim.Result, out int64, outs []int64) Result {
	return Result{
		Converged:    res.Converged,
		Interactions: res.Interactions,
		Total:        res.Total,
		Stable:       res.Stable,
		Output:       out,
		Estimate:     estimateFor(alg, out),
		Outputs:      outs,
		Interrupted:  res.Interrupted,
	}
}

// EstimateOutput converts an agent output value of the given algorithm
// into a population-size estimate — the same mapping Result.Estimate
// uses. Callers that drive a Simulation stepwise (rather than through
// RunToConvergence) use it to interpret Output values.
func EstimateOutput(alg Algorithm, out int64) int64 { return estimateFor(alg, out) }

// estimateFor converts an output value into a population-size estimate.
func estimateFor(alg Algorithm, out int64) int64 {
	switch alg {
	case Approximate, StableApproximate, GeometricEstimate:
		if out < 0 {
			return 0
		}
		if out > 62 {
			return 1 << 62
		}
		return int64(1) << uint(out)
	default:
		return out
	}
}
