package sim_test

import (
	"math"
	"testing"

	"popcount/internal/baseline"
	"popcount/internal/clock"
	"popcount/internal/core"
	"popcount/internal/epidemic"
	"popcount/internal/junta"
	"popcount/internal/sim"
)

// TestCountEngineConservation steps count protocols in uneven batches
// and asserts the agent-conservation invariant Σ counts == n after every
// batch, on both the skip and the per-interaction path.
func TestCountEngineConservation(t *testing.T) {
	const n = 256
	protos := map[string]func() sim.CountProtocol{
		"epidemic":  func() sim.CountProtocol { return sim.NewSpecCount(epidemic.NewSingleSourceSpec(n, true)) },
		"junta":     func() sim.CountProtocol { return sim.NewSpecCount(junta.NewSpec(n)) },
		"clock":     func() sim.CountProtocol { return sim.NewSpecCount(clock.NewSpec(n, clock.DefaultM, 16, 3)) },
		"geometric": func() sim.CountProtocol { return sim.NewSpecCount(baseline.NewGeometricSpec(n)) },
	}
	for name, mk := range protos {
		for _, disable := range []bool{false, true} {
			e, err := sim.NewCountEngine(mk(), sim.Config{Seed: 7, DisableBatch: disable})
			if err != nil {
				t.Fatalf("%s: NewCountEngine: %v", name, err)
			}
			for _, batch := range []int64{1, 3, 17, 100, 1000, 4096, 10000} {
				e.Step(batch)
				if got := e.Counts().Sum(); got != n {
					t.Fatalf("%s (disableSkip=%v): Σ counts = %d after batch, want %d",
						name, disable, got, n)
				}
				e.Counts().ForEach(func(code uint64, cnt int64) {
					if cnt < 0 {
						t.Fatalf("%s: negative count %d for state %#x", name, cnt, code)
					}
				})
			}
		}
	}
}

// TestCountEngineEpidemicConverges checks the count engine drives a
// broadcast to the all-maximum configuration and reports a plausible
// convergence time (Θ(n log n)).
func TestCountEngineEpidemicConverges(t *testing.T) {
	const n = 4096
	res, err := sim.RunCount(sim.NewSpecCount(epidemic.NewSingleSourceSpec(n, true)),
		sim.Config{Seed: 3, CheckEvery: n / 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("broadcast did not converge")
	}
	norm := float64(res.Interactions) / (float64(n) * math.Log(float64(n)))
	if norm < 0.5 || norm > 20 {
		t.Fatalf("T/(n ln n) = %.2f outside plausible range", norm)
	}
}

// TestCountEngineSkipMatchesPerInteraction compares the skip path
// against the per-interaction path distributionally: mean convergence
// time over paired trials must agree within tolerance. (The two paths
// consume randomness differently, so runs are not bit-for-bit equal.)
func TestCountEngineSkipMatchesPerInteraction(t *testing.T) {
	const (
		n      = 512
		trials = 32
		tol    = 0.20
	)
	mean := func(disable bool) float64 {
		var sum float64
		for i := 0; i < trials; i++ {
			res, err := sim.RunCount(sim.NewSpecCount(junta.NewSpec(n)), sim.Config{
				Seed:         sim.TrialSeed(11, i),
				CheckEvery:   n / 4,
				DisableBatch: disable,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("trial %d (disable=%v) did not converge", i, disable)
			}
			sum += float64(res.Interactions)
		}
		return sum / trials
	}
	skip, plain := mean(false), mean(true)
	if d := math.Abs(skip-plain) / plain; d > tol {
		t.Fatalf("skip-path mean %.0f vs per-interaction mean %.0f: relative gap %.2f > %.2f",
			skip, plain, d, tol)
	}
}

// TestCountEngineFrozenConfig pins the absorbing no-op behavior: a
// configuration where every pair is a certain no-op must pass whole
// batches in one jump instead of looping.
func TestCountEngineFrozenConfig(t *testing.T) {
	p := sim.NewSpecCount(epidemic.NewSpec([]int64{5, 5, 5, 5}, true)) // already uniform
	e, err := sim.NewCountEngine(p, sim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Step(1 << 40)
	if got := e.Interactions(); got != 1<<40 {
		t.Fatalf("Interactions = %d, want %d", got, int64(1)<<40)
	}
	if !e.Converged() {
		t.Fatal("uniform configuration should be converged")
	}
}

// TestCountEngineRejectsNonUniformScheduler pins ErrCountScheduler: the
// configuration view is only valid under the uniform scheduler.
func TestCountEngineRejectsNonUniformScheduler(t *testing.T) {
	_, err := sim.NewCountEngine(sim.NewSpecCount(junta.NewSpec(64)),
		sim.Config{Scheduler: sim.BiasedScheduler{Hot: 0, Bias: 0.2}})
	if err != sim.ErrCountScheduler {
		t.Fatalf("got %v, want ErrCountScheduler", err)
	}
	if _, err := sim.NewCountEngine(sim.NewSpecCount(junta.NewSpec(64)),
		sim.Config{Scheduler: sim.UniformScheduler{}}); err != nil {
		t.Fatalf("uniform scheduler rejected: %v", err)
	}
}

// TestCountEngineReproducible pins seed determinism: equal seeds yield
// identical results and final configurations.
func TestCountEngineReproducible(t *testing.T) {
	run := func() (sim.Result, map[uint64]int64) {
		e, err := sim.NewCountEngine(sim.NewSpecCount(baseline.NewGeometricSpec(1000)), sim.Config{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.RunToConvergence()
		if err != nil {
			t.Fatal(err)
		}
		final := map[uint64]int64{}
		e.Counts().ForEach(func(code uint64, cnt int64) { final[code] = cnt })
		return res, final
	}
	r1, f1 := run()
	r2, f2 := run()
	if r1 != r2 {
		t.Fatalf("results differ: %+v vs %+v", r1, r2)
	}
	if len(f1) != len(f2) {
		t.Fatalf("final configurations differ: %v vs %v", f1, f2)
	}
	for code, cnt := range f1 {
		if f2[code] != cnt {
			t.Fatalf("final configurations differ at %#x: %d vs %d", code, cnt, f2[code])
		}
	}
}

// TestCountEngineConfirmWindowAndObserver exercises the shared driver
// features — ConfirmWindow, Observe, Interrupt — on the count engine.
func TestCountEngineConfirmWindowAndObserver(t *testing.T) {
	const n = 256
	polls := 0
	cfg := sim.Config{
		Seed:          5,
		CheckEvery:    n,
		ConfirmWindow: 4 * n,
		Observe:       func(sim.Observation) { polls++ },
	}
	res, err := sim.RunCount(sim.NewSpecCount(epidemic.NewSingleSourceSpec(n, false)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Stable {
		t.Fatalf("expected stable convergence, got %+v", res)
	}
	if res.Total != res.Interactions+4*n {
		t.Fatalf("Total = %d, want Interactions+window = %d", res.Total, res.Interactions+4*n)
	}
	if polls == 0 {
		t.Fatal("observer never fired")
	}

	// Interrupt before any work: the run must stop at the first batch.
	cfg = sim.Config{Seed: 5, Interrupt: func() bool { return true }}
	res, err = sim.RunCount(sim.NewSpecCount(junta.NewSpec(n)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.Total != 0 {
		t.Fatalf("expected immediate interrupt, got %+v", res)
	}
}

// TestRunCountTrials pins the trial driver: per-trial seeds match
// RunTrials' derivation and results arrive in trial order.
func TestRunCountTrials(t *testing.T) {
	const n, trials = 256, 8
	runs, err := sim.RunCountTrials(
		func(int) sim.CountProtocol { return sim.NewSpecCount(epidemic.NewSingleSourceSpec(n, true)) },
		trials, sim.Config{Seed: 21}, sim.CountTrialOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		if !run.Result.Converged {
			t.Fatalf("trial %d did not converge", i)
		}
		// Re-run the trial standalone with its derived seed: must match.
		solo, err := sim.RunCount(sim.NewSpecCount(epidemic.NewSingleSourceSpec(n, true)),
			sim.Config{Seed: sim.TrialSeed(21, i)})
		if err != nil {
			t.Fatal(err)
		}
		if solo != run.Result {
			t.Fatalf("trial %d: ensemble %+v vs solo %+v", i, run.Result, solo)
		}
	}
}

// BenchmarkCountStep times the exact count engine's per-interaction
// path over a fixed trajectory: each iteration builds a fresh CountExact
// n = 2¹¹ engine at seed 1 and steps it 3·2²⁰ interactions, through
// narrow occupied windows (the linear scan) and the wide ones of the
// balancing phases (the Fenwick descent). Skipped under -short: one
// iteration takes about half a second.
func BenchmarkCountStep(b *testing.B) {
	if testing.Short() {
		b.Skip("whole-run benchmark")
	}
	const steps = 3 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := sim.NewCountEngine(sim.NewSpecCount(core.NewCountExactSpec(core.Config{N: 1 << 11}).Spec), sim.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		e.Step(steps)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/interaction")
}

// BenchmarkAgentStep is BenchmarkCountStep on the agent engine: each
// iteration builds a fresh CountExact n = 2¹¹ agent engine at seed 1 and
// steps it 3·2²⁰ interactions — the pair draw, the memoized interned
// rule and the count mirror. Skipped under -short.
func BenchmarkAgentStep(b *testing.B) {
	if testing.Short() {
		b.Skip("whole-run benchmark")
	}
	const steps = 3 << 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := sim.NewEngine(sim.NewSpecAgent(core.NewCountExactSpec(core.Config{N: 1 << 11}).Spec), sim.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		e.Step(steps)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps), "ns/interaction")
}
