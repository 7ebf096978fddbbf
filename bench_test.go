// Benchmarks: one testing.B benchmark per reproduction table (see
// DESIGN.md's per-experiment index and EXPERIMENTS.md for recorded
// results). Each benchmark runs its experiment's core measurement at a
// benchmark-sized population and reports the normalized quantity the
// paper's claim is about (interactions divided by the claimed asymptotic
// bound) via b.ReportMetric, so regressions in either wall-clock speed
// or protocol efficiency are visible. The full parameter sweeps that
// regenerate the EXPERIMENTS.md tables are run by cmd/popbench, which
// shares the same internal/exp harness.
package popcount_test

import (
	"math"
	"testing"

	"popcount"
	"popcount/internal/backup"
	"popcount/internal/balance"
	"popcount/internal/baseline"
	"popcount/internal/clock"
	"popcount/internal/core"
	"popcount/internal/epidemic"
	"popcount/internal/exp"
	"popcount/internal/junta"
	"popcount/internal/leader"
	"popcount/internal/sim"
)

// runNorm runs factory-built protocols b.N times and reports the mean of
// interactions/denom as metric.
func runNorm(b *testing.B, factory func(i int) sim.Protocol, cfg sim.Config, denom float64, metric string) {
	b.Helper()
	var total float64
	conv := 0
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		res, err := sim.Run(factory(i), c)
		if err != nil {
			b.Fatal(err)
		}
		if res.Converged {
			conv++
			total += float64(res.Interactions) / denom
		}
	}
	if conv > 0 {
		b.ReportMetric(total/float64(conv), metric)
	}
	b.ReportMetric(float64(conv)/float64(b.N), "convergence-rate")
}

func nLnN(n int) float64  { return float64(n) * math.Log(float64(n)) }
func nLn2N(n int) float64 { l := math.Log(float64(n)); return float64(n) * l * l }

// BenchmarkE1Broadcast — Lemma 3: T_bc = O(n log n).
func BenchmarkE1Broadcast(b *testing.B) {
	const n = 4096
	runNorm(b, func(int) sim.Protocol { return sim.NewSpecAgent(epidemic.NewSingleSourceSpec(n, true)) },
		sim.Config{Seed: 1, CheckEvery: n / 4}, nLnN(n), "T/(n·ln·n)")
}

// BenchmarkE2Junta — Lemma 4: junta settles in O(n log n).
func BenchmarkE2Junta(b *testing.B) {
	const n = 4096
	runNorm(b, func(int) sim.Protocol { return junta.New(n) },
		sim.Config{Seed: 2}, nLnN(n), "settle/(n·ln·n)")
}

// BenchmarkE3PhaseClock — Lemma 5: phases of Θ(n log n) interactions.
func BenchmarkE3PhaseClock(b *testing.B) {
	const n = 2048
	var total float64
	count := 0
	for i := 0; i < b.N; i++ {
		p := clock.NewProtocol(n, clock.DefaultM, 2*sim.Log2Ceil(n), 4)
		if _, err := sim.Run(p, sim.Config{Seed: uint64(3 + i), MaxInteractions: n * 20000}); err != nil {
			b.Fatal(err)
		}
		if ds, de, ok := p.PhaseInterval(2); ok {
			total += float64(de-ds) / nLnN(n)
			count++
		}
	}
	if count > 0 {
		b.ReportMetric(total/float64(count), "D/(n·ln·n)")
	}
}

// BenchmarkE4LeaderElect — Lemma 6: unique leader in O(n log² n).
func BenchmarkE4LeaderElect(b *testing.B) {
	const n = 2048
	runNorm(b, func(int) sim.Protocol {
		return leader.NewProtocol(n, clock.DefaultM, 2*sim.Log2Ceil(n))
	}, sim.Config{Seed: 4}, nLn2N(n), "T/(n·ln²·n)")
}

// BenchmarkE5FastLeader — Lemma 7: unique leader in O(n log n).
func BenchmarkE5FastLeader(b *testing.B) {
	const n = 2048
	runNorm(b, func(int) sim.Protocol {
		return leader.NewFastProtocol(n, clock.DefaultM, 2*sim.Log2Ceil(n), leader.DefaultFastRounds)
	}, sim.Config{Seed: 5}, nLnN(n), "T/(n·ln·n)")
}

// BenchmarkE6PowerOfTwo — Lemma 8: balancing completes in ≤ 16·n·log n.
func BenchmarkE6PowerOfTwo(b *testing.B) {
	const n = 4096
	kappa := sim.Log2Floor(3 * n / 4)
	limit := int64(16 * float64(n) * math.Log2(float64(n)))
	runNorm(b, func(int) sim.Protocol { return balance.NewPowers(n, kappa, true) },
		sim.Config{Seed: 6, MaxInteractions: limit}, nLnN(n), "T/(n·ln·n)")
}

// BenchmarkE7Search — Lemma 9: the Search Protocol's result window
// (measured through protocol Approximate).
func BenchmarkE7Search(b *testing.B) {
	const n = 1000
	okWindow := 0
	for i := 0; i < b.N; i++ {
		p := sim.NewSpecAgent(core.NewApproximateSpec(core.Config{N: n}).Spec)
		res, err := sim.Run(p, sim.Config{Seed: uint64(7 + i)})
		if err != nil {
			b.Fatal(err)
		}
		if k := p.Output(0); res.Converged && k >= 0 {
			est := math.Ldexp(1, int(k))
			if est > 0.75*n && est <= math.Pow(2, float64(sim.Log2Ceil(n))) {
				okWindow++
			}
		}
	}
	b.ReportMetric(float64(okWindow)/float64(b.N), "window-ok-rate")
}

// BenchmarkE8Approximate — Theorem 1.1: convergence in O(n log² n).
func BenchmarkE8Approximate(b *testing.B) {
	const n = 1024
	runNorm(b, func(int) sim.Protocol {
		return sim.NewSpecAgent(core.NewApproximateSpec(core.Config{N: n}).Spec)
	}, sim.Config{Seed: 8}, nLn2N(n), "T/(n·ln²·n)")
}

// BenchmarkE9StableApprox — Theorem 1.2: the stable hybrid's clean path.
func BenchmarkE9StableApprox(b *testing.B) {
	const n = 512
	runNorm(b, func(int) sim.Protocol {
		return sim.NewSpecAgent(core.NewStableApproximateSpec(core.Config{N: n}, false).Spec)
	}, sim.Config{Seed: 9}, nLn2N(n), "T/(n·ln²·n)")
}

// BenchmarkE10ApproxStage — Lemma 10: k = log n ± 3.
func BenchmarkE10ApproxStage(b *testing.B) {
	const n = 1024
	ok := 0
	for i := 0; i < b.N; i++ {
		spec := core.NewCountExactSpec(core.Config{N: n})
		p := sim.NewSpecAgent(spec.Spec)
		if _, err := sim.Run(p, sim.Config{Seed: uint64(10 + i)}); err != nil {
			b.Fatal(err)
		}
		if d := math.Abs(float64(spec.Metrics(p.View()).MaxK) - math.Log2(n)); d <= 3 {
			ok++
		}
	}
	b.ReportMetric(float64(ok)/float64(b.N), "k-within-3-rate")
}

// BenchmarkE11Refine — Lemma 11: all agents output exactly n.
func BenchmarkE11Refine(b *testing.B) {
	const n = 1024
	exact := 0
	for i := 0; i < b.N; i++ {
		p := sim.NewSpecAgent(core.NewCountExactSpec(core.Config{N: n}).Spec)
		res, err := sim.Run(p, sim.Config{Seed: uint64(11 + i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Converged && sim.AllOutputsEqual(p, n) {
			exact++
		}
	}
	b.ReportMetric(float64(exact)/float64(b.N), "exact-rate")
}

// BenchmarkE12CountExact — Theorem 2: stabilization in O(n log n).
func BenchmarkE12CountExact(b *testing.B) {
	const n = 1024
	runNorm(b, func(int) sim.Protocol {
		return sim.NewSpecAgent(core.NewCountExactSpec(core.Config{N: n}).Spec)
	}, sim.Config{Seed: 12}, nLnN(n), "T/(n·ln·n)")
}

// BenchmarkE13BackupApprox — Lemma 12: backup in O(n² log² n).
func BenchmarkE13BackupApprox(b *testing.B) {
	const n = 64
	runNorm(b, func(int) sim.Protocol { return backup.NewApprox(n) },
		sim.Config{Seed: 13, MaxInteractions: n * n * 2000},
		float64(n)*float64(n)*math.Log(n), "T/(n²·ln·n)")
}

// BenchmarkE14BackupExact — Lemma 13: backup in O(n² log n).
func BenchmarkE14BackupExact(b *testing.B) {
	const n = 128
	runNorm(b, func(int) sim.Protocol { return backup.NewExact(n) },
		sim.Config{Seed: 14, MaxInteractions: n * n * 1000},
		float64(n)*float64(n)*math.Log(n), "T/(n²·ln·n)")
}

// BenchmarkE15Baselines — Section 1: CountExact vs the Θ(n²) token-bag
// baseline; the reported metric is the baseline/CountExact speedup.
func BenchmarkE15Baselines(b *testing.B) {
	const n = 2048
	var speedups float64
	count := 0
	for i := 0; i < b.N; i++ {
		bag := baseline.NewTokenBag(n)
		bres, err := sim.Run(bag, sim.Config{Seed: uint64(15 + i), MaxInteractions: n * n * 200})
		if err != nil {
			b.Fatal(err)
		}
		ce := sim.NewSpecAgent(core.NewCountExactSpec(core.Config{N: n}).Spec)
		cres, err := sim.Run(ce, sim.Config{Seed: uint64(115 + i)})
		if err != nil {
			b.Fatal(err)
		}
		if bres.Converged && cres.Converged {
			speedups += float64(bres.Interactions) / float64(cres.Interactions)
			count++
		}
	}
	if count > 0 {
		b.ReportMetric(speedups/float64(count), "bag/CountExact-speedup")
	}
}

// BenchmarkA1ClockPeriod — ablation: protocol Approximate at half the
// default clock constant (shorter phases).
func BenchmarkA1ClockPeriod(b *testing.B) {
	const n = 1024
	runNorm(b, func(int) sim.Protocol {
		return sim.NewSpecAgent(core.NewApproximateSpec(core.Config{N: n, ClockM: 16}).Spec)
	}, sim.Config{Seed: 16}, nLn2N(n), "T/(n·ln²·n)")
}

// BenchmarkA2Shift — ablation: CountExact with a coarser load explosion.
func BenchmarkA2Shift(b *testing.B) {
	const n = 1024
	runNorm(b, func(int) sim.Protocol {
		return sim.NewSpecAgent(core.NewCountExactSpec(core.Config{N: n, Shift: 1}).Spec)
	}, sim.Config{Seed: 17}, nLnN(n), "T/(n·ln·n)")
}

// BenchmarkA3FastLeaderBits — ablation: FastLeaderElection with a single
// round (higher collision probability).
func BenchmarkA3FastLeaderBits(b *testing.B) {
	const n = 2048
	unique := 0
	for i := 0; i < b.N; i++ {
		p := leader.NewFastProtocol(n, clock.DefaultM, 2*sim.Log2Ceil(n), 1)
		res, err := sim.Run(p, sim.Config{Seed: uint64(18 + i), MaxInteractions: int64(nLnN(n)) * 400})
		if err != nil {
			b.Fatal(err)
		}
		if res.Converged && p.Leaders() == 1 {
			unique++
		}
	}
	b.ReportMetric(float64(unique)/float64(b.N), "unique-leader-rate")
}

// BenchmarkInteractionThroughput measures raw simulator speed: scheduler
// plus the CountExact transition function, on the engine's default
// (batched) path through the public API.
func BenchmarkInteractionThroughput(b *testing.B) {
	const n = 1 << 16
	s, err := popcount.NewSimulation(popcount.CountExact, n)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	s.Step(int64(b.N))
	reportIPS(b, int64(b.N))
}

// reportIPS reports the explicit interactions/sec throughput metric.
func reportIPS(b *testing.B, interactions int64) {
	b.Helper()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(interactions)/secs, "interactions/sec")
	}
}

// benchEngineConvergence runs a full convergence run per iteration and
// reports interactions/sec over the executed interactions — on the count
// engine that includes the no-op interactions applied in bulk by the
// self-loop skip, which is exactly the point: those interactions happen
// in the simulated chain but cost no per-interaction work.
func benchEngineConvergence(b *testing.B, run func(seed uint64) (sim.Result, error)) {
	b.Helper()
	var total int64
	for i := 0; i < b.N; i++ {
		res, err := run(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatal("run did not converge")
		}
		total += res.Total
	}
	reportIPS(b, total)
}

// throughputN is the population for the engine-vs-engine comparisons:
// n ≈ 10⁶, the scale where the agent engine's per-interaction memory
// traffic dominates while the count engine's cost stays O(1) per
// interaction.
const throughputN = 1 << 20

// BenchmarkEpidemicAgentEngine / BenchmarkEpidemicCountEngine — the
// headline comparison: one-way max-broadcast at n ≈ 10⁶ to convergence.
// The count engine's interactions/sec metric exceeds the agent engine's
// by far more than 100x (EXPERIMENTS.md records the measured numbers).
func BenchmarkEpidemicAgentEngine(b *testing.B) {
	benchEngineConvergence(b, func(seed uint64) (sim.Result, error) {
		return sim.Run(sim.NewSpecAgent(epidemic.NewSingleSourceSpec(throughputN, true)),
			sim.Config{Seed: seed})
	})
}

func BenchmarkEpidemicCountEngine(b *testing.B) {
	benchEngineConvergence(b, func(seed uint64) (sim.Result, error) {
		return sim.RunCount(sim.NewSpecCount(epidemic.NewSingleSourceSpec(throughputN, true)),
			sim.Config{Seed: seed})
	})
}

// BenchmarkEpidemicCountBatched — the same convergence run under
// multinomial batch stepping (countbatch.go): whole drift-bounded
// epochs of interactions are applied to the configuration at once, so
// the per-conversion cost that bounds BenchmarkEpidemicCountEngine
// disappears and a full n ≈ 10⁶ run costs a fraction of a millisecond.
func BenchmarkEpidemicCountBatched(b *testing.B) {
	benchEngineConvergence(b, func(seed uint64) (sim.Result, error) {
		return sim.RunCount(sim.NewSpecCount(epidemic.NewSingleSourceSpec(throughputN, true)),
			sim.Config{Seed: seed, BatchSteps: true})
	})
}

// BenchmarkLeaderAgentEngine / BenchmarkLeaderCountEngine — leader_elect
// over a fixed junta. The leader count form has no self-loop skip (its
// alphabet is too rich), so the gain here is the O(|states|) working set
// versus the agent engine's O(n) random memory traffic.
func BenchmarkLeaderAgentEngine(b *testing.B) {
	const n = 1 << 14
	benchEngineConvergence(b, func(seed uint64) (sim.Result, error) {
		return sim.Run(leader.NewProtocol(n, clock.DefaultM, 2*sim.Log2Ceil(n)),
			sim.Config{Seed: seed})
	})
}

func BenchmarkLeaderCountEngine(b *testing.B) {
	const n = 1 << 14
	benchEngineConvergence(b, func(seed uint64) (sim.Result, error) {
		return sim.RunCount(sim.NewSpecCount(leader.NewSpec(n, clock.DefaultM, 2*sim.Log2Ceil(n))),
			sim.Config{Seed: seed})
	})
}

// BenchmarkJuntaCountEngine — junta settling on the count engine; with
// the epidemic pair this covers both skip-path protocols at scale.
func BenchmarkJuntaCountEngine(b *testing.B) {
	benchEngineConvergence(b, func(seed uint64) (sim.Result, error) {
		return sim.RunCount(sim.NewSpecCount(junta.NewSpec(throughputN)), sim.Config{Seed: seed})
	})
}

// BenchmarkEpidemicStepAgent / BenchmarkEpidemicStepCount — sustained
// interaction throughput: both engines execute b.N interactions of the
// same chain (one-way broadcast at n ≈ 10⁶) from the initial state. The
// agent engine pays full price for every interaction; the count engine
// pays only for the ≈ n state-changing ones and jumps the certain no-op
// runs that dominate once the maximum has mostly spread. This sustained
// rate — not the per-conversion cost — is what makes the Θ(n log n)-to-
// horizon runs at n = 10⁸ affordable, and it exceeds the agent engine's
// rate by far more than 100x (see EXPERIMENTS.md for recorded numbers).
func BenchmarkEpidemicStepAgent(b *testing.B) {
	e, err := sim.NewEngine(sim.NewSpecAgent(epidemic.NewSingleSourceSpec(throughputN, true)), sim.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	e.Step(int64(b.N))
	reportIPS(b, int64(b.N))
}

func BenchmarkEpidemicStepCount(b *testing.B) {
	e, err := sim.NewCountEngine(sim.NewSpecCount(epidemic.NewSingleSourceSpec(throughputN, true)), sim.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	e.Step(int64(b.N))
	reportIPS(b, int64(b.N))
}

// BenchmarkEpidemicStepCountBatched — sustained throughput of the
// multinomial batch-stepping mode over the same chain: the E19
// acceptance bar is ≥10× BenchmarkEpidemicStepCount; measured is
// ~500× (see EXPERIMENTS.md).
func BenchmarkEpidemicStepCountBatched(b *testing.B) {
	e, err := sim.NewCountEngine(sim.NewSpecCount(epidemic.NewSingleSourceSpec(throughputN, true)),
		sim.Config{Seed: 1, BatchSteps: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	e.Step(int64(b.N))
	reportIPS(b, int64(b.N))
}

// benchPath measures interaction throughput of one protocol on either
// the scalar engine loop (disableBatch) or the BatchInteractor fast
// path. The two paths are bit-for-bit equivalent (see
// TestBatchEquivalentToScalar); these benchmarks quantify the speedup of
// removing the per-interaction virtual calls.
func benchPath(b *testing.B, p sim.Protocol, disableBatch bool) {
	b.Helper()
	e, err := sim.NewEngine(p, sim.Config{Seed: 1, DisableBatch: disableBatch})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	e.Step(int64(b.N))
	reportIPS(b, int64(b.N))
}

// BenchmarkTokenBagScalar / BenchmarkTokenBagBatch — the Θ(n²) baseline's
// cheap transition is dominated by dispatch overhead, so the batched
// path's gain is largest here.
func BenchmarkTokenBagScalar(b *testing.B) { benchPath(b, baseline.NewTokenBag(1<<14), true) }
func BenchmarkTokenBagBatch(b *testing.B)  { benchPath(b, baseline.NewTokenBag(1<<14), false) }

// BenchmarkApproximateScalar / BenchmarkApproximateBatch — protocol
// Approximate's transition is heavier, so the dispatch saving is
// proportionally smaller but still visible.
func BenchmarkApproximateScalar(b *testing.B) {
	benchPath(b, sim.NewSpecAgent(core.NewApproximateSpec(core.Config{N: 1 << 14}).Spec), true)
}
func BenchmarkApproximateBatch(b *testing.B) {
	benchPath(b, sim.NewSpecAgent(core.NewApproximateSpec(core.Config{N: 1 << 14}).Spec), false)
}

// BenchmarkCountExactScalar / BenchmarkCountExactBatch — same comparison
// for protocol CountExact.
func BenchmarkCountExactScalar(b *testing.B) {
	benchPath(b, sim.NewSpecAgent(core.NewCountExactSpec(core.Config{N: 1 << 14}).Spec), true)
}
func BenchmarkCountExactBatch(b *testing.B) {
	benchPath(b, sim.NewSpecAgent(core.NewCountExactSpec(core.Config{N: 1 << 14}).Spec), false)
}

// benchSpecAgentStep measures sustained agent-adapter throughput of a
// spec on the agent engine.
func benchSpecAgentStep(b *testing.B, spec *sim.Spec) {
	b.Helper()
	e, err := sim.NewEngine(sim.NewSpecAgent(spec), sim.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	e.Step(int64(b.N))
	reportIPS(b, int64(b.N))
}

// BenchmarkJuntaSpecAgentTable / BenchmarkJuntaSpecAgentClosure — the
// flat successor-table precompile of NewSpecAgent (Spec.Domain): the
// junta spec's dense 8-bit packing qualifies, replacing the
// per-interaction Delta closure (decode, rule, encode) with one slice
// lookup. The closure variant clears Domain on an otherwise identical
// spec; the two paths are bit-for-bit equal (FuzzSpecAdapters pins
// them against the naive reference). Measured: the table recovers
// ~25% agent-engine throughput on this spec (EXPERIMENTS.md).
func BenchmarkJuntaSpecAgentTable(b *testing.B) {
	benchSpecAgentStep(b, junta.NewSpec(1<<20))
}

func BenchmarkJuntaSpecAgentClosure(b *testing.B) {
	spec := junta.NewSpec(1 << 20)
	spec.Domain = 0
	benchSpecAgentStep(b, spec)
}

// BenchmarkApproximateSpecCountBatched — sustained throughput of the
// composed protocol Approximate (junta × clock × slow election ×
// search) on the batched count engine via its interned spec: the
// engine form behind E8's n = 10⁸ rows.
func BenchmarkApproximateSpecCountBatched(b *testing.B) {
	e, err := sim.NewCountEngine(
		sim.NewSpecCount(core.NewApproximateSpec(core.Config{N: throughputN}).Spec),
		sim.Config{Seed: 1, BatchSteps: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	e.Step(int64(b.N))
	reportIPS(b, int64(b.N))
}

// BenchmarkBackupExactCountEngine — the exact backup's Θ(n² log n)
// chain on the count engine's skip path: a full Lemma 13 run at
// n = 2¹⁴ per iteration, dominated by the ~n merges instead of the n²
// scheduler draws.
func BenchmarkBackupExactCountEngine(b *testing.B) {
	const n = 1 << 14
	benchEngineConvergence(b, func(seed uint64) (sim.Result, error) {
		return sim.RunCount(sim.NewSpecCount(backup.NewExactSpec(n)),
			sim.Config{Seed: seed, CheckEvery: n, MaxInteractions: int64(n) * int64(n) * 1000})
	})
}

// BenchmarkQuickSuite runs the whole quick experiment suite once per
// iteration — the full reproduction in one knob (also exercised by
// cmd/popbench).
func BenchmarkQuickSuite(b *testing.B) {
	if testing.Short() {
		b.Skip("quick suite is still heavy; skipped with -short")
	}
	for i := 0; i < b.N; i++ {
		tables := exp.All(exp.Options{Quick: true, Parallelism: 8, Trials: 2, Seed: uint64(19 + i)})
		if len(tables) != 22 {
			b.Fatalf("expected 22 tables, got %d", len(tables))
		}
	}
}
