package sim_test

import (
	"testing"

	"popcount/internal/core"
	"popcount/internal/sim"
)

// planTauSink keeps the benchmarked sizing result live.
var planTauSink int64

// BenchmarkPlanTau times the planner's pre-leap τ-sizing pass — the
// O(occupied²) walk over every occupied ordered pair — on an
// Approximate n = 2¹⁶ engine stepped to mid-run (~20 occupied states),
// serially and as the 2-shard flow pass. Each iteration sizes the same
// epoch again, so after the first pass every pair's transition entry
// is cached and ns/epoch is the steady-state lookup cost.
func BenchmarkPlanTau(b *testing.B) {
	const n = 1 << 16
	for _, bc := range []struct {
		name   string
		shards int
		plan   func(*sim.CountEngine) (int64, bool)
	}{
		{"serial", 1, sim.PlanTau},
		{"shards=2", 2, sim.PlanTauSharded},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e, err := sim.NewCountEngine(sim.NewSpecCount(core.NewApproximateSpec(core.Config{N: n}).Spec),
				sim.Config{Seed: 1, BatchSteps: true, Shards: bc.shards})
			if err != nil {
				b.Fatal(err)
			}
			e.Step(256 * n)
			if _, frozen := bc.plan(e); frozen {
				b.Fatal("mid-run configuration is frozen")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				planTauSink, _ = bc.plan(e)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/epoch")
			b.ReportMetric(float64(e.Counts().States()), "occupied")
		})
	}
}
