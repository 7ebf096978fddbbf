// Distributional-equivalence tests: the count-based engine simulates
// the same Markov chain as the agent-array engine (projected onto
// configurations), so for every adapted protocol the distribution of
// convergence times must match. The two engines consume randomness
// differently, so runs are compared statistically — paired trial sets,
// equal per-trial seed derivation, and a pinned tolerance on the mean
// convergence time — rather than bit for bit.
package popcount_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"popcount"
	"popcount/internal/baseline"
	"popcount/internal/clock"
	"popcount/internal/epidemic"
	"popcount/internal/junta"
	"popcount/internal/leader"
	"popcount/internal/sim"
)

// equivTolerance is the pinned relative tolerance on the difference of
// mean convergence times between the two engines over equivTrials
// paired trials. With ≥64 trials the standard error of each mean is
// ~1–2% for these protocols, so 10% is a ≥5σ bound: failures indicate a
// real dynamics mismatch, not noise.
const (
	equivTolerance = 0.10
	equivTrials    = 64
	equivN         = 1024
)

// meanAgent runs trials of an agent-form protocol and returns the mean
// convergence time, failing the test on any non-converged trial.
func meanAgent(t *testing.T, name string, factory func(int) sim.Protocol, cfg sim.Config) float64 {
	t.Helper()
	runs, err := sim.RunTrials(factory, equivTrials, cfg, sim.TrialOptions{Parallelism: 2})
	if err != nil {
		t.Fatalf("%s agent trials: %v", name, err)
	}
	var sum float64
	for i, r := range runs {
		if !r.Result.Converged {
			t.Fatalf("%s agent trial %d did not converge", name, i)
		}
		sum += float64(r.Result.Interactions)
	}
	return sum / equivTrials
}

// batched returns cfg with the multinomial batch-stepping mode enabled.
func batched(cfg sim.Config) sim.Config {
	cfg.BatchSteps = true
	return cfg
}

// meanCount is meanAgent for the count form.
func meanCount(t *testing.T, name string, factory func(int) sim.CountProtocol, cfg sim.Config) float64 {
	t.Helper()
	runs, err := sim.RunCountTrials(factory, equivTrials, cfg, sim.CountTrialOptions{Parallelism: 2})
	if err != nil {
		t.Fatalf("%s count trials: %v", name, err)
	}
	var sum float64
	for i, r := range runs {
		if !r.Result.Converged {
			t.Fatalf("%s count trial %d did not converge", name, i)
		}
		sum += float64(r.Result.Interactions)
	}
	return sum / equivTrials
}

func checkEquivalence(t *testing.T, name string, agent, count float64) {
	t.Helper()
	gap := math.Abs(agent-count) / agent
	t.Logf("%s: agent mean T_C = %.0f, count mean T_C = %.0f, relative gap %.3f",
		name, agent, count, gap)
	if gap > equivTolerance {
		t.Errorf("%s: engines disagree: agent mean %.0f vs count mean %.0f (gap %.3f > %.2f)",
			name, agent, count, gap, equivTolerance)
	}
}

func TestCountEngineEquivalenceEpidemic(t *testing.T) {
	cfg := sim.Config{Seed: 0xE1, CheckEvery: equivN / 8}
	spec := func() *sim.Spec { return epidemic.NewSingleSourceSpec(equivN, true) }
	factory := func(int) sim.CountProtocol { return sim.NewSpecCount(spec()) }
	agent := meanAgent(t, "epidemic",
		func(int) sim.Protocol { return sim.NewSpecAgent(spec()) }, cfg)
	count := meanCount(t, "epidemic", factory, cfg)
	checkEquivalence(t, "epidemic", agent, count)
	checkEquivalence(t, "epidemic batched", agent,
		meanCount(t, "epidemic batched", factory, batched(cfg)))
}

func TestCountEngineEquivalenceJunta(t *testing.T) {
	cfg := sim.Config{Seed: 0xE2, CheckEvery: equivN / 8}
	factory := func(int) sim.CountProtocol { return sim.NewSpecCount(junta.NewSpec(equivN)) }
	agent := meanAgent(t, "junta",
		func(int) sim.Protocol { return junta.New(equivN) }, cfg)
	count := meanCount(t, "junta", factory, cfg)
	checkEquivalence(t, "junta", agent, count)
	checkEquivalence(t, "junta batched", agent,
		meanCount(t, "junta batched", factory, batched(cfg)))
}

func TestCountEngineEquivalenceLeader(t *testing.T) {
	if testing.Short() {
		t.Skip("leader equivalence is the heaviest pairing; skipped with -short")
	}
	js := 2 * sim.Log2Ceil(equivN)
	cfg := sim.Config{Seed: 0xE4, CheckEvery: equivN}
	factory := func(int) sim.CountProtocol { return sim.NewSpecCount(leader.NewSpec(equivN, clock.DefaultM, js)) }
	agent := meanAgent(t, "leader",
		func(int) sim.Protocol { return leader.NewProtocol(equivN, clock.DefaultM, js) }, cfg)
	count := meanCount(t, "leader", factory, cfg)
	checkEquivalence(t, "leader", agent, count)
	checkEquivalence(t, "leader batched", agent,
		meanCount(t, "leader batched", factory, batched(cfg)))
}

func TestCountEngineEquivalenceClock(t *testing.T) {
	const maxPhase = 3
	js := 2 * sim.Log2Ceil(equivN)
	cfg := sim.Config{Seed: 0xE3, CheckEvery: equivN}
	factory := func(int) sim.CountProtocol {
		return sim.NewSpecCount(clock.NewSpec(equivN, clock.DefaultM, js, maxPhase))
	}
	agent := meanAgent(t, "clock",
		func(int) sim.Protocol { return clock.NewProtocol(equivN, clock.DefaultM, js, maxPhase) }, cfg)
	count := meanCount(t, "clock", factory, cfg)
	checkEquivalence(t, "clock", agent, count)
	checkEquivalence(t, "clock batched", agent,
		meanCount(t, "clock batched", factory, batched(cfg)))
}

func TestCountEngineEquivalenceGeometric(t *testing.T) {
	cfg := sim.Config{Seed: 0xE5, CheckEvery: equivN / 8}
	spec := func() *sim.Spec { return baseline.NewGeometricSpec(equivN) }
	factory := func(int) sim.CountProtocol { return sim.NewSpecCount(spec()) }
	agent := meanAgent(t, "geometric",
		func(int) sim.Protocol { return sim.NewSpecAgent(spec()) }, cfg)
	count := meanCount(t, "geometric", factory, cfg)
	checkEquivalence(t, "geometric", agent, count)
	checkEquivalence(t, "geometric batched", agent,
		meanCount(t, "geometric batched", factory, batched(cfg)))
}

// TestWithEngineCount exercises the public engine selection: the count
// engine runs supported algorithms at populations the agent engine
// would need gigabytes for, rejects unsupported algorithms with a clear
// error, and EngineAuto resolves per algorithm.
func TestWithEngineCount(t *testing.T) {
	const n = 1 << 21 // 2M agents: trivial for the count engine
	res, err := popcount.Count(popcount.GeometricEstimate, n,
		popcount.WithEngine(popcount.EngineCount), popcount.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("count-engine run did not converge")
	}
	if res.Outputs != nil {
		t.Fatalf("count-engine result carries per-agent outputs (%d entries)", len(res.Outputs))
	}
	// The max of n Geometric(1/2) samples is log2 n + Θ(1) w.h.p.
	if res.Output < 15 || res.Output > 40 {
		t.Fatalf("log-estimate %d implausible for n=2^21", res.Output)
	}

	// The core counting protocols run on the count engine since their
	// spec port; the configuration view must agree with the agent form
	// on the answer itself.
	res, err = popcount.Count(popcount.CountExact, 512,
		popcount.WithEngine(popcount.EngineCount), popcount.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Output != 512 {
		t.Fatalf("CountExact on the count engine: converged=%v output=%d, want exact 512", res.Converged, res.Output)
	}

	s, err := popcount.NewSimulation(popcount.GeometricEstimate, 1024,
		popcount.WithEngine(popcount.EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine() != popcount.EngineCount {
		t.Fatalf("EngineAuto picked %v for geometric, want count", s.Engine())
	}
	// EngineAuto stays conservative for the core protocols: their count
	// form exists but is not the profitable default.
	s, err = popcount.NewSimulation(popcount.CountExact, 1024,
		popcount.WithEngine(popcount.EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine() != popcount.EngineAgent {
		t.Fatalf("EngineAuto picked %v for exact, want agent", s.Engine())
	}

	// Non-uniform schedulers are incompatible with the configuration
	// view.
	if _, err := popcount.Count(popcount.GeometricEstimate, 1024,
		popcount.WithEngine(popcount.EngineCount),
		popcount.WithScheduler(popcount.RandomMatching)); err == nil {
		t.Fatal("count engine accepted a non-uniform scheduler")
	}
}

// TestWithEngineCountBatched exercises the public batched mode: it runs
// supported algorithms at populations beyond the exact count engine's
// comfort, accepts the WithBatchRounds knob, reports its concrete kind,
// and is subject to the same restrictions as EngineCount.
func TestWithEngineCountBatched(t *testing.T) {
	const n = 1 << 22 // 4M agents
	res, err := popcount.Count(popcount.GeometricEstimate, n,
		popcount.WithEngine(popcount.EngineCountBatched),
		popcount.WithBatchRounds(4), popcount.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("batched count-engine run did not converge")
	}
	if res.Outputs != nil {
		t.Fatalf("batched count-engine result carries per-agent outputs (%d entries)", len(res.Outputs))
	}
	// The max of n Geometric(1/2) samples is log2 n + Θ(1) w.h.p.
	if res.Output < 15 || res.Output > 45 {
		t.Fatalf("log-estimate %d implausible for n=2^22", res.Output)
	}

	k, err := popcount.ParseEngineKind("count-batched")
	if err != nil || k != popcount.EngineCountBatched {
		t.Fatalf("ParseEngineKind(count-batched) = %v, %v", k, err)
	}
	s, err := popcount.NewSimulation(popcount.GeometricEstimate, 1024,
		popcount.WithEngine(popcount.EngineCountBatched))
	if err != nil {
		t.Fatal(err)
	}
	if s.Engine() != popcount.EngineCountBatched {
		t.Fatalf("Engine() = %v, want count-batched", s.Engine())
	}

	// A core protocol on the public batched path end to end. 1024 is a
	// power of two, so ⌊log₂ n⌋ = ⌈log₂ n⌉ = 10 is the only correct
	// answer — no slack for an off-by-one in the search stage.
	res, err = popcount.Count(popcount.Approximate, 1024,
		popcount.WithEngine(popcount.EngineCountBatched), popcount.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Output != 10 {
		t.Fatalf("Approximate on the batched engine: converged=%v output=%d, want exactly 10", res.Converged, res.Output)
	}
	if _, err := popcount.NewSimulation(popcount.GeometricEstimate, 1024,
		popcount.WithEngine(popcount.EngineCountBatched),
		popcount.WithScheduler(popcount.RandomMatching)); !errors.Is(err, sim.ErrCountScheduler) || !errors.Is(err, popcount.ErrUnsupportedEngine) {
		t.Fatalf("batched engine with non-uniform scheduler: got %v, want ErrCountScheduler wrapped in ErrUnsupportedEngine", err)
	}
}

// TestEngineSchedulerValidation pins the construction-time validation
// of engine × scheduler combinations: explicit count-engine requests
// with a non-uniform scheduler fail from NewSimulation and RunEnsemble
// (not at Run time), and EngineAuto falls back to the agent engine
// instead of erroring.
func TestEngineSchedulerValidation(t *testing.T) {
	// EngineAuto + non-uniform scheduler: the count engine is ruled out,
	// so auto must resolve to the agent engine and run fine.
	s, err := popcount.NewSimulation(popcount.GeometricEstimate, 256,
		popcount.WithEngine(popcount.EngineAuto),
		popcount.WithScheduler(popcount.RandomMatching))
	if err != nil {
		t.Fatalf("EngineAuto with matching scheduler errored: %v", err)
	}
	if s.Engine() != popcount.EngineAgent {
		t.Fatalf("EngineAuto with matching scheduler picked %v, want agent", s.Engine())
	}
	res, err := popcount.Count(popcount.GeometricEstimate, 256,
		popcount.WithEngine(popcount.EngineAuto),
		popcount.WithScheduler(popcount.RandomMatching))
	if err != nil || !res.Converged {
		t.Fatalf("EngineAuto fallback run failed: %v (converged=%v)", err, res.Converged)
	}
	if _, err := popcount.RunEnsemble(context.Background(),
		popcount.GeometricEstimate, 256, 4,
		popcount.WithEngine(popcount.EngineAuto),
		popcount.WithScheduler(popcount.RandomMatching)); err != nil {
		t.Fatalf("EngineAuto ensemble with matching scheduler errored: %v", err)
	}

	// An explicit count-engine request with the same scheduler must
	// surface ErrCountScheduler from the constructors.
	if _, err := popcount.NewSimulation(popcount.GeometricEstimate, 256,
		popcount.WithEngine(popcount.EngineCount),
		popcount.WithScheduler(popcount.RandomMatching)); !errors.Is(err, sim.ErrCountScheduler) || !errors.Is(err, popcount.ErrUnsupportedEngine) {
		t.Fatalf("NewSimulation: got %v, want ErrCountScheduler wrapped in ErrUnsupportedEngine", err)
	}
	if _, err := popcount.RunEnsemble(context.Background(),
		popcount.GeometricEstimate, 256, 4,
		popcount.WithEngine(popcount.EngineCount),
		popcount.WithScheduler(popcount.RandomMatching)); !errors.Is(err, sim.ErrCountScheduler) || !errors.Is(err, popcount.ErrUnsupportedEngine) {
		t.Fatalf("RunEnsemble: got %v, want ErrCountScheduler wrapped in ErrUnsupportedEngine", err)
	}

	// A uniform scheduler registered explicitly stays compatible.
	if _, err := popcount.NewSimulation(popcount.GeometricEstimate, 256,
		popcount.WithEngine(popcount.EngineCount),
		popcount.WithScheduler(popcount.UniformPairs)); err != nil {
		t.Fatalf("uniform scheduler rejected: %v", err)
	}
}

// TestRunEnsembleCountEngine pins the ensemble path: reproducible at any
// parallelism, aggregate statistics filled, observers fired.
func TestRunEnsembleCountEngine(t *testing.T) {
	const n, trials = 4096, 16
	run := func(par int) popcount.EnsembleResult {
		ens, err := popcount.RunEnsemble(context.Background(),
			popcount.GeometricEstimate, n, trials,
			popcount.WithEngine(popcount.EngineCount),
			popcount.WithSeed(77), popcount.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		return ens
	}
	seq, parl := run(1), run(4)
	if !reflect.DeepEqual(seq, parl) {
		t.Fatal("count-engine ensemble is not reproducible across parallelism")
	}
	if seq.Stats.Trials != trials || seq.Stats.Converged != trials {
		t.Fatalf("expected %d converged trials, got %+v", trials, seq.Stats)
	}
	if seq.Stats.Interactions.Mean <= 0 || seq.Stats.Estimates.Mean <= 0 {
		t.Fatalf("aggregates missing: %+v", seq.Stats)
	}

	var snaps atomic.Int64
	_, err := popcount.RunEnsemble(context.Background(),
		popcount.GeometricEstimate, n, 4,
		popcount.WithEngine(popcount.EngineCount), popcount.WithSeed(78),
		popcount.WithParallelism(2),
		popcount.WithObserver(func(popcount.Snapshot) { snaps.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	if snaps.Load() == 0 {
		t.Fatal("ensemble observer never fired on the count engine")
	}

	// The batched mode shares the ensemble path — and its bit-for-bit
	// reproducibility across parallelism.
	runBatched := func(par int) popcount.EnsembleResult {
		ens, err := popcount.RunEnsemble(context.Background(),
			popcount.GeometricEstimate, n, 8,
			popcount.WithEngine(popcount.EngineCountBatched),
			popcount.WithSeed(79), popcount.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		return ens
	}
	if !reflect.DeepEqual(runBatched(1), runBatched(3)) {
		t.Fatal("batched count-engine ensemble is not reproducible across parallelism")
	}
}
