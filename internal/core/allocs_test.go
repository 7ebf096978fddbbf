package core_test

import (
	"testing"

	"popcount/internal/core"
	"popcount/internal/sim"
)

// TestSpecMissPathAllocs pins the allocations of the memo's miss path:
// each spec's agent engine, built at n = 2¹⁰ and stepped 2²⁰
// interactions, classifies and resolves tens of thousands of pairs for
// its first time, and a state that escaped to the heap on every
// resolution would cost one allocation each. The budget covers the
// engine's construction and the memo, interner and mirror growth.
// Skipped under -short, which the race job runs.
func TestSpecMissPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("steps 2²⁰ interactions per spec")
	}
	const n, steps, budget = 1 << 10, 1 << 20, 1000
	for _, c := range []struct {
		name string
		spec func() *sim.Spec
	}{
		{"approximate", func() *sim.Spec { return core.NewApproximateSpec(core.Config{N: n}).Spec }},
		{"exact", func() *sim.Spec { return core.NewCountExactSpec(core.Config{N: n}).Spec }},
		{"stable-approximate", func() *sim.Spec { return core.NewStableApproximateSpec(core.Config{N: n}, false).Spec }},
		{"stable-exact", func() *sim.Spec { return core.NewStableCountExactSpec(core.Config{N: n}, false).Spec }},
		{"stable-exact fault", func() *sim.Spec { return core.NewStableCountExactSpec(core.Config{N: n}, true).Spec }},
	} {
		var pairs int
		allocs := testing.AllocsPerRun(1, func() {
			spec := c.spec()
			e, err := sim.NewEngine(sim.NewSpecAgent(spec), sim.Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			e.Step(steps)
			pairs = spec.Memo.Pairs()
		})
		t.Logf("%s: %.0f allocations, %d classifications", c.name, allocs, pairs)
		if allocs > budget {
			t.Errorf("%s: %.0f allocations over %d classifications, budget %d", c.name, allocs, pairs, budget)
		}
	}
}
