// Cross-engine conformance of the paper's composed counting protocols:
// the spec-derived count and batched-count forms must simulate the same
// chain as the spec's agent form. Complements the bit-for-bit agent
// pins in internal/core (which anchor the agent form to the rule, state
// by state, and to golden results recorded from the hand-written agent
// arrays) with a distributional pin that anchors the COUNT ENGINES to
// the agent engine across the interning layer, plus Σ counts == n
// conservation on the interned sparse-Delta path.
//
// Unlike the building-block protocols of TestCountEngineEquivalence*,
// the composed protocols' convergence time is multi-modal: T_C is
// quantized by how many leader-election and search phases the junta
// race happens to need, so per-trial values at n = 1024 spread over
// roughly 3·10⁶–13·10⁶ with σ/mean ≈ 0.45 on EVERY engine. The pinned
// tolerance is therefore 0.35 at 40 paired trials (≈ 3.5σ on the
// difference of means): wide enough to be stable, tight enough to
// catch the failure modes this suite exists for — an unsound state
// canonicalization (which distorts leader retirement and shifts means
// by far more), a broken coin-claim predicate, or count-engine
// sampling drift.
//
// The suite is split across two test packages so each stays inside the
// default per-package test budget on a single-core runner: the fast
// path's two protocols here, the stable hybrids' two in
// internal/core's stableequivalence_test.go (same helpers, same
// tolerance).
package popcount_test

import (
	"math"
	"testing"

	"popcount/internal/core"
	"popcount/internal/sim"
)

const (
	coreEquivTolerance = 0.35
	coreEquivTrials    = 40
	coreEquivN         = 1024
)

// coreMeanAgent runs trials of a spec's agent form and returns the
// mean convergence time.
func coreMeanAgent(t *testing.T, name string, spec func() *sim.Spec, cfg sim.Config) float64 {
	t.Helper()
	factory := func(int) sim.Protocol { return sim.NewSpecAgent(spec()) }
	runs, err := sim.RunTrials(factory, coreEquivTrials, cfg, sim.TrialOptions{Parallelism: 4})
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
	return sum / coreEquivTrials
}

// coreMeanCount is coreMeanAgent for a spec's count form.
func coreMeanCount(t *testing.T, name string, spec func() *sim.Spec, cfg sim.Config) float64 {
	t.Helper()
	factory := func(int) sim.CountProtocol { return sim.NewSpecCount(spec()) }
	runs, err := sim.RunCountTrials(factory, coreEquivTrials, cfg, sim.CountTrialOptions{Parallelism: 4})
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
	return sum / coreEquivTrials
}

func checkCoreEquivalence(t *testing.T, name string, agent, count float64) {
	t.Helper()
	gap := math.Abs(agent-count) / agent
	t.Logf("%s: agent mean T_C = %.0f, count mean T_C = %.0f, relative gap %.3f",
		name, agent, count, gap)
	if gap > coreEquivTolerance {
		t.Errorf("%s: engines disagree: agent mean %.0f vs count mean %.0f (gap %.3f > %.2f)",
			name, agent, count, gap, coreEquivTolerance)
	}
}

// coreEquivalence runs the full three-column comparison for one
// protocol: spec agent form vs spec count form vs spec batched form,
// paired trial seeds throughout.
func coreEquivalence(t *testing.T, name string, spec func() *sim.Spec, cfg sim.Config) {
	t.Helper()
	agent := coreMeanAgent(t, name, spec, cfg)
	checkCoreEquivalence(t, name, agent, coreMeanCount(t, name, spec, cfg))
	checkCoreEquivalence(t, name+" batched", agent,
		coreMeanCount(t, name+" batched", spec, batched(cfg)))
}

func TestCoreEngineEquivalenceApproximate(t *testing.T) {
	if testing.Short() {
		t.Skip("three engine columns of a Θ(n log² n) protocol; skipped with -short")
	}
	t.Parallel()
	cfg := sim.Config{Seed: 0xCE1, CheckEvery: coreEquivN}
	coreEquivalence(t, "approximate",
		func() *sim.Spec { return core.NewApproximateSpec(core.Config{N: coreEquivN}).Spec },
		cfg)
}

func TestCoreEngineEquivalenceCountExact(t *testing.T) {
	t.Parallel()
	cfg := sim.Config{Seed: 0xCE2, CheckEvery: coreEquivN}
	coreEquivalence(t, "exact",
		func() *sim.Spec { return core.NewCountExactSpec(core.Config{N: coreEquivN}).Spec },
		cfg)
}

// TestCoreSpecCountConservation pins Σ counts == n and non-negativity
// on the interned sparse-Delta path: the core specs discover codes
// lazily through an interner, so a mis-netted transition would corrupt
// the configuration silently if nothing summed it.
func TestCoreSpecCountConservation(t *testing.T) {
	const n = 600
	specs := map[string]func() *sim.Spec{
		"approximate":        func() *sim.Spec { return core.NewApproximateSpec(core.Config{N: n}).Spec },
		"exact":              func() *sim.Spec { return core.NewCountExactSpec(core.Config{N: n}).Spec },
		"stable-approximate": func() *sim.Spec { return core.NewStableApproximateSpec(core.Config{N: n}, false).Spec },
		"stable-exact":       func() *sim.Spec { return core.NewStableCountExactSpec(core.Config{N: n}, true).Spec },
	}
	for name, mk := range specs {
		for _, mode := range []struct {
			name  string
			batch bool
		}{{"exact", false}, {"batched", true}} {
			e, err := sim.NewCountEngine(sim.NewSpecCount(mk()),
				sim.Config{Seed: 0xC0C0, BatchSteps: mode.batch})
			if err != nil {
				t.Fatalf("%s/%s: NewCountEngine: %v", name, mode.name, err)
			}
			var done int64
			for _, batch := range []int64{1, 63, 1000, 20000, 100000, 300000} {
				e.Step(batch)
				done += batch
				if got := e.Counts().Sum(); got != n {
					t.Fatalf("%s/%s: Σ counts = %d after %d interactions, want %d", name, mode.name, got, done, n)
				}
				e.Counts().ForEach(func(code uint64, cnt int64) {
					if cnt < 0 {
						t.Fatalf("%s/%s: negative count %d for state %d", name, mode.name, cnt, code)
					}
				})
				if e.Interactions() != done {
					t.Fatalf("%s/%s: Interactions = %d, want %d", name, mode.name, e.Interactions(), done)
				}
			}
		}
	}
}
