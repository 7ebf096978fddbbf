package popcount

import (
	"testing"

	"popcount/internal/sim"
)

// TestNewSimulationBuildsOneSpec pins that constructing a run builds its
// spec once: a warm NewSimulation allocates no more than building the
// spec and its engine form directly, plus the Simulation itself and the
// WithEngine option. A second spec built only to validate the request —
// an interner, a memo and their tables — would cost 18 allocations more
// for Approximate.
// Skipped under -short, which the race job runs.
func TestNewSimulationBuildsOneSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("the race detector changes allocation counts")
	}
	for _, c := range []struct {
		alg  Algorithm
		n    int
		kind EngineKind
	}{
		{Approximate, 1 << 16, EngineCountBatched},
		{CountExact, 1 << 11, EngineAgent},
		{TokenBag, 1 << 10, EngineCount},
	} {
		set := newSettings([]Option{WithEngine(c.kind)})
		direct := testing.AllocsPerRun(20, func() {
			spec := specFor(c.alg, c.n, set)
			var err error
			if c.kind == EngineAgent {
				_, err = sim.NewEngine(sim.NewSpecAgent(spec), set.simConfig(c.kind))
			} else {
				_, err = sim.NewCountEngine(sim.NewSpecCount(spec), set.simConfig(c.kind))
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		public := testing.AllocsPerRun(20, func() {
			if _, err := NewSimulation(c.alg, c.n, WithEngine(c.kind)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v on %v: NewSimulation %.0f allocations, spec and engine alone %.0f", c.alg, c.kind, public, direct)
		if public > direct+2 {
			t.Errorf("%v on %v: NewSimulation allocates %.0f times, the spec and engine alone %.0f", c.alg, c.kind, public, direct)
		}
	}
}
