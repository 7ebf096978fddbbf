// Cross-engine distributional equivalence for the two stable hybrids —
// the second half of the root package's core conformance suite (see
// coreconformance_test.go there for the tolerance rationale: T_C is
// multi-modal with σ/mean ≈ 0.45, so 0.35 at 40 paired trials is
// ≈ 3.5σ on the difference of means). The split keeps each test
// package inside the default per-package budget on a single-core
// runner; helpers are mirrored, constants identical.
package core_test

import (
	"math"
	"testing"

	"popcount/internal/core"
	"popcount/internal/sim"
)

const (
	stableEquivTolerance = 0.35
	stableEquivTrials    = 40
	stableEquivN         = 1024
)

func stableMeanAgent(t *testing.T, name string, spec func() *sim.Spec, cfg sim.Config) float64 {
	t.Helper()
	factory := func(int) sim.Protocol { return sim.NewSpecAgent(spec()) }
	runs, err := sim.RunTrials(factory, stableEquivTrials, cfg, sim.TrialOptions{Parallelism: 4})
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
	return sum / stableEquivTrials
}

func stableMeanCount(t *testing.T, name string, spec func() *sim.Spec, cfg sim.Config) float64 {
	t.Helper()
	factory := func(int) sim.CountProtocol { return sim.NewSpecCount(spec()) }
	runs, err := sim.RunCountTrials(factory, stableEquivTrials, cfg, sim.CountTrialOptions{Parallelism: 4})
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
	return sum / stableEquivTrials
}

func checkStableEquivalence(t *testing.T, name string, agent, count float64) {
	t.Helper()
	gap := math.Abs(agent-count) / agent
	t.Logf("%s: agent mean T_C = %.0f, count mean T_C = %.0f, relative gap %.3f",
		name, agent, count, gap)
	if gap > stableEquivTolerance {
		t.Errorf("%s: engines disagree: agent mean %.0f vs count mean %.0f (gap %.3f > %.2f)",
			name, agent, count, gap, stableEquivTolerance)
	}
}

func stableEquivalence(t *testing.T, name string, spec func() *sim.Spec, cfg sim.Config) {
	t.Helper()
	batched := cfg
	batched.BatchSteps = true
	agent := stableMeanAgent(t, name, spec, cfg)
	checkStableEquivalence(t, name, agent, stableMeanCount(t, name, spec, cfg))
	checkStableEquivalence(t, name+" batched", agent,
		stableMeanCount(t, name+" batched", spec, batched))
}

func TestCoreEngineEquivalenceStableApproximate(t *testing.T) {
	if testing.Short() {
		t.Skip("three engine columns of a Θ(n log² n) protocol; skipped with -short")
	}
	t.Parallel()
	cfg := sim.Config{Seed: 0xCE3, CheckEvery: stableEquivN}
	stableEquivalence(t, "stable-approximate",
		func() *sim.Spec { return core.NewStableApproximateSpec(core.Config{N: stableEquivN}, false).Spec },
		cfg)
}

func TestCoreEngineEquivalenceStableCountExact(t *testing.T) {
	t.Parallel()
	cfg := sim.Config{Seed: 0xCE4, CheckEvery: stableEquivN}
	stableEquivalence(t, "stable-exact",
		func() *sim.Spec { return core.NewStableCountExactSpec(core.Config{N: stableEquivN}, false).Spec },
		cfg)
}
