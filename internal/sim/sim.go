// Package sim implements the probabilistic population-protocol scheduler
// and simulation engine from the paper's computation model (Section 1.1):
// in every time step an ordered pair of distinct agents — the initiator and
// the responder — is selected independently and uniformly at random, and
// the pair updates its states by applying the protocol's transition
// function.
//
// The engine is organized around the resumable Engine type: a Protocol
// owns its agent states and applies transitions; the Engine supplies the
// random pair sequence, counts interactions, polls for convergence,
// notifies observers, and drives the optional confirmation window that
// separates convergence from stabilization (T_C vs T_S). Run, RunSteps
// and RunTrials are thin drivers over the same Engine, so every consumer
// — the public popcount package, the experiment harness, the commands —
// shares one loop.
//
// Protocols that additionally implement BatchInteractor get a fast path:
// the Engine hands them a whole batch of interactions at once and the
// protocol pulls scheduler-drawn pairs in a tight loop, eliminating the
// per-interaction interface dispatch of the scalar path while remaining
// bit-for-bit reproducible with it.
package sim

import (
	"errors"
	"fmt"
	"sync"

	"popcount/internal/rng"
)

// Protocol is a population protocol under simulation. Implementations own
// the per-agent state vector.
type Protocol interface {
	// N returns the population size.
	N() int
	// Interact applies one transition with initiator u and responder v.
	// The generator provides scheduler randomness (synthetic coins).
	Interact(u, v int, r *rng.Rand)
}

// BatchInteractor is an optional Protocol fast path. The engine hands the
// protocol a whole batch of interactions at once; the implementation must
// behave exactly like count consecutive sched.Next + Interact calls —
// drawing each pair from sched and interleaving transition coins on r in
// the same order as the scalar path — so that a batched run is bit-for-bit
// identical to a scalar run under equal seeds. The payoff is that the
// per-interaction virtual calls disappear: the protocol loops over its own
// (devirtualized, inlinable) transition body, and may special-case
// UniformScheduler to draw pairs with a direct r.Pair call.
type BatchInteractor interface {
	InteractBatch(count int64, sched Scheduler, r *rng.Rand)
}

// Converger is implemented by protocols that can report whether the
// current configuration is a desired (converged) one. The check may scan
// all agents; the engine calls it only every Config.CheckEvery
// interactions.
type Converger interface {
	Converged() bool
}

// Outputter is implemented by protocols whose agents produce an integer
// output (the output function ω of the paper).
type Outputter interface {
	Output(i int) int64
}

// Observation is a periodic snapshot passed to Config.Observe at every
// convergence poll.
type Observation struct {
	// Interactions is the number of interactions executed so far.
	Interactions int64
	// Converged reports whether the convergence predicate held at this
	// poll (always false for protocols without a Converger).
	Converged bool
	// Errored reports whether the protocol's error predicate held at
	// this poll. It is only probed when a fault plan is active
	// (Config.Faults) and the spec declares error detection; false
	// otherwise.
	Errored bool
}

// Config controls a single simulation run.
type Config struct {
	// Seed seeds the scheduler RNG. Runs with equal seeds and protocols
	// are bit-for-bit reproducible.
	Seed uint64
	// MaxInteractions caps the run. Zero selects a generous default of
	// 4096·n·ceil(log2 n)² interactions.
	MaxInteractions int64
	// CheckEvery is the interval, in interactions, between convergence
	// polls. Zero selects n.
	CheckEvery int64
	// Observe, if non-nil, is called at every convergence poll (including
	// the polls inside a confirmation window) with the current progress.
	Observe func(Observation)
	// Interrupt, if non-nil, is polled before every batch; when it
	// returns true the run stops early and Result.Interrupted is set.
	// It is how context cancellation reaches the engine.
	Interrupt func() bool
	// Scheduler selects interaction pairs. Nil selects the paper's
	// uniform random scheduler.
	Scheduler Scheduler
	// ConfirmWindow, when positive, distinguishes convergence from
	// stabilization (Section 1.1: T_C vs T_S): after the convergence
	// predicate first holds, the run continues for this many further
	// interactions and Result.Stable reports whether the predicate held
	// at every poll throughout the window.
	ConfirmWindow int64
	// DisableBatch forces the scalar interaction path even for protocols
	// implementing BatchInteractor. The batch path is bit-for-bit
	// equivalent; the switch exists for differential tests and for
	// benchmarking one path against the other.
	DisableBatch bool
	// BatchSteps enables multinomial batch stepping on the count engine:
	// whole epochs of interactions are projected onto ordered state
	// pairs with conditional binomial draws and applied to the
	// configuration in bulk (see countbatch.go). The mode is a
	// τ-leaping approximation — distributionally faithful within the
	// BatchDrift bound, not bit-for-bit comparable to sequential
	// stepping. The agent-array Engine ignores it.
	BatchSteps bool
	// BatchMaxRounds caps one batch epoch at BatchMaxRounds·n
	// interactions (zero selects 1 round). Only read when BatchSteps is
	// set.
	BatchMaxRounds int
	// BatchDrift is the per-state relative drift bound of one batch
	// epoch: an epoch whose net count change on any touched state
	// exceeds max(1, BatchDrift·count) is split and retried at half
	// size. Zero selects 0.125. Only read when BatchSteps is set.
	BatchDrift float64
	// Shards, when ≥ 2, shards each batch epoch across that many
	// deterministic work streams (see countshard.go): epoch planning and
	// the conditional-binomial decomposition run concurrently over
	// pair-row blocks of the occupied alphabet, each block on an RNG
	// stream derived from (Seed, epoch counter, block index), with a
	// serial merge in ascending block order. Results depend on Shards
	// but never on GOMAXPROCS or scheduling. Values ≤ 1 keep the serial
	// planner, bit-for-bit identical to earlier releases. Only read when
	// BatchSteps is set; the agent engine rejects values ≥ 2, and the
	// count engine values above MaxShards.
	Shards int
	// Faults, if non-nil, applies a deterministic fault schedule to the
	// run (see FaultPlan): corruption bursts, Poisson corruption and
	// churn streams, and adversarial interactions, identical across the
	// engine forms. The protocol must be spec-backed (fault
	// transformations are defined over a Spec's state domain) and the
	// scheduler uniform; the engine constructors error otherwise.
	Faults *FaultPlan
}

// Result reports the outcome of a run.
type Result struct {
	// Interactions is the number of interactions after which the
	// convergence predicate was first observed true (granularity
	// CheckEvery). If the run did not converge it equals Total.
	Interactions int64
	// Total is the total number of interactions executed.
	Total int64
	// Converged reports whether the convergence predicate held when the
	// run stopped.
	Converged bool
	// Stable reports whether the predicate held at every poll of the
	// ConfirmWindow after first convergence (equal to Converged when no
	// window was requested).
	Stable bool
	// Interrupted reports whether Config.Interrupt stopped the run early.
	Interrupted bool
}

// ErrTooSmall is returned when a protocol population has fewer than two
// agents, which cannot interact.
var ErrTooSmall = errors.New("sim: population must have at least 2 agents")

// DefaultMaxInteractions returns the default interaction cap for a
// population of n agents: 4096·n·⌈log₂ n⌉².
func DefaultMaxInteractions(n int) int64 {
	l := int64(Log2Ceil(n))
	if l < 1 {
		l = 1
	}
	return 4096 * int64(n) * l * l
}

// Log2Ceil returns ⌈log₂ n⌉ for n ≥ 1 (0 for n ≤ 1).
func Log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	k := 0
	for v := n - 1; v > 0; v >>= 1 {
		k++
	}
	return k
}

// Log2Floor returns ⌊log₂ n⌋ for n ≥ 1. It panics for n < 1.
func Log2Floor(n int) int {
	if n < 1 {
		panic("sim: Log2Floor of non-positive value")
	}
	k := -1
	for v := n; v > 0; v >>= 1 {
		k++
	}
	return k
}

// engineOps is the stepping surface the shared convergence driver runs
// over: the agent-array Engine and the count-based CountEngine both
// implement it, so RunToConvergence and the confirmation window have a
// single definition.
type engineOps interface {
	// Step executes exactly count interactions and advances the
	// embedded engineCore's interaction counter.
	Step(count int64)
	// Converged reports whether the protocol's convergence predicate
	// currently holds (false for protocols without one).
	Converged() bool
	// applyFault applies one fault event to the current configuration
	// without advancing the interaction counter. Only called when a
	// fault plan is active.
	applyFault(ev faultEvent)
	// faultErrored probes the protocol's error predicate (false for
	// protocols without one). Only called when a fault plan is active.
	faultErrored() bool
}

// engineCore is the engine state shared by the agent-array and
// count-based engines: the normalized configuration, the interaction
// counter, and the convergence-driving loop.
type engineCore struct {
	cfg    Config // normalized: MaxInteractions and CheckEvery filled in
	t      int64
	convAt int64       // interactions at first observed convergence, -1 before
	fs     *faultState // compiled fault plan, nil when Config.Faults is nil
}

// normalizeConfig fills in the defaults that depend on the population
// size.
func normalizeConfig(cfg Config, n int) Config {
	if cfg.MaxInteractions <= 0 {
		cfg.MaxInteractions = DefaultMaxInteractions(n)
	}
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = int64(n)
	}
	return cfg
}

// Interactions returns the number of interactions executed so far.
func (c *engineCore) Interactions() int64 { return c.t }

// poll runs one convergence poll: it records first convergence, notifies
// the observer, and returns the predicate's value.
func (c *engineCore) poll(ops engineOps) bool {
	conv := ops.Converged()
	if c.fs != nil {
		conv = c.fs.onPoll(c, ops, conv)
	}
	if conv && c.convAt < 0 {
		c.convAt = c.t
	}
	if c.cfg.Observe != nil {
		obs := Observation{Interactions: c.t, Converged: conv}
		if c.fs != nil {
			obs.Errored = ops.faultErrored()
		}
		c.cfg.Observe(obs)
	}
	return conv
}

// interrupted polls the Interrupt hook.
func (c *engineCore) interrupted() bool {
	return c.cfg.Interrupt != nil && c.cfg.Interrupt()
}

// result packages the engine's current progress. The first-convergence
// time is only meaningful on a converged result: a predicate that held
// once and flapped out before the budget ran out must report the
// budget, per the Interactions contract.
func (c *engineCore) result(converged, stable, interrupted bool) Result {
	first := c.t
	if converged && c.convAt >= 0 {
		first = c.convAt
	}
	return Result{
		Interactions: first,
		Total:        c.t,
		Converged:    converged,
		Stable:       stable,
		Interrupted:  interrupted,
	}
}

// runToConvergence drives ops from its current position until the
// convergence predicate holds (plus the optional confirmation window),
// the interaction cap is reached, or Interrupt fires.
func (c *engineCore) runToConvergence(ops engineOps) (Result, error) {
	maxI, check := c.cfg.MaxInteractions, c.cfg.CheckEvery
	converged := ops.Converged()
	if converged && c.convAt < 0 {
		c.convAt = c.t
	}
	for !converged && c.t < maxI {
		if c.interrupted() {
			return c.result(false, false, true), nil
		}
		batch := check
		if rem := maxI - c.t; rem < batch {
			batch = rem
		}
		ops.Step(batch)
		converged = c.poll(ops)
	}
	if !converged {
		return c.result(false, false, false), nil
	}
	if c.cfg.ConfirmWindow <= 0 {
		return c.result(true, true, false), nil
	}
	return c.confirm(ops)
}

// confirm continues the run for cfg.ConfirmWindow interactions after
// first convergence and reports whether the predicate held at every
// poll (the stabilization check of Section 1.1). Result.Converged stays
// true — it records that convergence was observed, even if the window
// then catches the configuration flapping out of the desired set.
func (c *engineCore) confirm(ops engineOps) (Result, error) {
	check := c.cfg.CheckEvery
	stable := true
	end := c.t + c.cfg.ConfirmWindow
	for c.t < end {
		if c.interrupted() {
			return c.result(true, false, true), nil
		}
		batch := check
		if rem := end - c.t; rem < batch {
			batch = rem
		}
		ops.Step(batch)
		if !c.poll(ops) {
			stable = false
		}
	}
	return c.result(true, stable, false), nil
}

// Engine is a resumable simulation of one protocol instance: stepwise
// control (Step) plus convergence driving (RunToConvergence) over the
// same interaction counter, scheduler, and RNG stream. Mixing the two is
// legal — RunToConvergence picks up wherever manual stepping left off.
type Engine struct {
	engineCore
	p       Protocol
	bi      BatchInteractor // nil when unsupported or disabled
	conv    Converger       // nil when the protocol has no predicate
	sched   Scheduler
	uniform bool // sched is the uniform scheduler: draw pairs directly
	n       int  // cached p.N(), hoisted out of the scalar step loop
	r       *rng.Rand
	fsa     *SpecAgent // fault-plane access to the agent array, nil without faults
}

// NewEngine validates p and cfg and returns an engine positioned at
// interaction 0.
func NewEngine(p Protocol, cfg Config) (*Engine, error) {
	n := p.N()
	if n < 2 {
		return nil, ErrTooSmall
	}
	if cfg.Shards >= 2 {
		return nil, fmt.Errorf("sim: Config.Shards=%d is only supported by the count engine's batched mode, not the agent engine", cfg.Shards)
	}
	cfg = normalizeConfig(cfg, n)
	if cfg.Scheduler == nil {
		cfg.Scheduler = UniformScheduler{}
	}
	if v, ok := cfg.Scheduler.(SchedulerValidator); ok {
		if err := v.Validate(n); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		engineCore: engineCore{cfg: cfg, convAt: -1},
		p:          p,
		sched:      cfg.Scheduler,
		n:          n,
		r:          rng.New(cfg.Seed),
	}
	// The scheduler type assertion is done once here rather than per
	// scalar Step iteration: the uniform scheduler's Next is exactly
	// r.Pair, so the hot loop can call the generator directly.
	_, e.uniform = cfg.Scheduler.(UniformScheduler)
	if !cfg.DisableBatch {
		e.bi, _ = p.(BatchInteractor)
	}
	e.conv, _ = p.(Converger)
	if cfg.Faults != nil {
		sa, ok := p.(*SpecAgent)
		if !ok {
			return nil, fmt.Errorf("%w: protocol %T is not spec-backed — fault transformations are defined over a Spec's state domain", ErrFaultPlan, p)
		}
		if !e.uniform {
			return nil, fmt.Errorf("%w: fault plans require the uniform scheduler (got %T)", ErrFaultPlan, cfg.Scheduler)
		}
		fs, err := compileFaults(cfg.Faults, n, cfg)
		if err != nil {
			return nil, err
		}
		e.fs, e.fsa = fs, sa
	}
	// One-shot initialization sampling (spec.go) happens here, before
	// any interaction, so the scalar and batched paths consume the
	// random stream identically.
	if is, ok := p.(InitSampler); ok {
		is.SampleInit(e.r)
	}
	return e, nil
}

// Converged reports whether the protocol's convergence predicate
// currently holds (false for protocols without one).
func (e *Engine) Converged() bool { return e.conv != nil && e.conv.Converged() }

// Step executes exactly count interactions without convergence checks,
// using the batch fast path when the protocol supports it. With a fault
// plan, scheduled events interleave at their exact interaction times.
func (e *Engine) Step(count int64) {
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
func (e *Engine) stepRaw(count int64) {
	switch {
	case e.bi != nil:
		e.bi.InteractBatch(count, e.sched, e.r)
	case e.uniform:
		// Devirtualized scalar loop: the uniform scheduler's Next is
		// r.Pair, bit for bit.
		for i := int64(0); i < count; i++ {
			u, v := e.r.Pair(e.n)
			e.p.Interact(u, v, e.r)
		}
	default:
		for i := int64(0); i < count; i++ {
			u, v := e.sched.Next(e.n, e.r)
			e.p.Interact(u, v, e.r)
		}
	}
	e.t += count
}

// RunToConvergence drives the simulation from its current position until
// the convergence predicate holds (plus the optional confirmation
// window), the interaction cap is reached, or Interrupt fires.
func (e *Engine) RunToConvergence() (Result, error) {
	return e.runToConvergence(e)
}

// Run simulates p under cfg until it converges or the interaction cap is
// reached.
func Run(p Protocol, cfg Config) (Result, error) {
	e, err := NewEngine(p, cfg)
	if err != nil {
		return Result{}, err
	}
	return e.RunToConvergence()
}

// RunSteps executes exactly steps interactions without convergence checks,
// useful for fixed-horizon experiments.
func RunSteps(p Protocol, seed uint64, steps int64) error {
	e, err := NewEngine(p, Config{Seed: seed})
	if err != nil {
		return err
	}
	e.Step(steps)
	return nil
}

// Factory builds a fresh protocol instance for trial number trial. The
// factory must return an independent instance every call.
type Factory func(trial int) Protocol

// TrialRun couples a trial's finished protocol instance with its result,
// so callers can read protocol-specific metrics after the run.
type TrialRun struct {
	Protocol Protocol
	Result   Result
}

// TrialOptions configures RunTrials beyond the per-run Config.
type TrialOptions struct {
	// Parallelism bounds concurrent trials (≤ 0 selects 1).
	Parallelism int
	// MakeScheduler, if non-nil, builds a fresh scheduler for every trial
	// — schedulers may be stateful and must never be shared across
	// trials. It overrides Config.Scheduler.
	MakeScheduler func() Scheduler
	// Observe, if non-nil, receives every trial's observations tagged
	// with the trial index. It overrides Config.Observe and must be safe
	// for concurrent use when Parallelism > 1.
	Observe func(trial int, obs Observation)
}

// TrialSeed derives trial i's scheduler seed from a base seed. The
// golden-ratio stride keeps the seeds well separated before they are
// hashed by the generator's splitmix64 seeding.
func TrialSeed(base uint64, trial int) uint64 {
	return base + uint64(trial)*0x9e3779b97f4a7c15
}

// forEachTrial runs trial indices 0..trials-1 over a bounded worker
// pool and returns the first error (all trials run to completion
// regardless). It is the one trial-parallelism scaffold shared by the
// agent-engine and count-engine trial drivers.
func forEachTrial(trials, parallelism int, run func(trial int) error) error {
	if parallelism <= 0 {
		parallelism = 1
	}
	if parallelism > trials {
		parallelism = trials
	}
	errs := make([]error, trials)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = run(i)
			}
		}()
	}
	for i := 0; i < trials; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunTrials runs independent trials of a protocol in parallel and returns
// the per-trial runs in trial order. Trial i uses seed TrialSeed(cfg.Seed,
// i), so results are bit-for-bit reproducible regardless of parallelism.
func RunTrials(f Factory, trials int, cfg Config, opt TrialOptions) ([]TrialRun, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("sim: non-positive trial count %d", trials)
	}
	runs := make([]TrialRun, trials)
	mkSched, observe := opt.MakeScheduler, opt.Observe
	err := forEachTrial(trials, opt.Parallelism, func(i int) error {
		c := cfg
		c.Seed = TrialSeed(cfg.Seed, i)
		if mkSched != nil {
			c.Scheduler = mkSched()
		}
		if observe != nil {
			// No closure is allocated on the common nil-observer path.
			c.Observe = func(obs Observation) { observe(i, obs) }
		}
		p := f(i)
		res, err := Run(p, c)
		runs[i] = TrialRun{Protocol: p, Result: res}
		return err
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// AllOutputsEqual reports whether every agent of p outputs want.
func AllOutputsEqual(p Protocol, want int64) bool {
	o, ok := p.(Outputter)
	if !ok {
		return false
	}
	for i := 0; i < p.N(); i++ {
		if o.Output(i) != want {
			return false
		}
	}
	return true
}

// Outputs returns the current output vector of p.
func Outputs(p Protocol) []int64 {
	o, ok := p.(Outputter)
	if !ok {
		return nil
	}
	out := make([]int64, p.N())
	for i := range out {
		out[i] = o.Output(i)
	}
	return out
}
