package exp

import (
	"popcount/internal/clock"
	"popcount/internal/core"
	"popcount/internal/leader"
	"popcount/internal/sim"
	"popcount/internal/stats"
)

// A1ClockPeriod ablates the phase-clock constant m in protocol
// Approximate: too-short phases break the Search Protocol's per-phase
// sub-routines (broadcast, load balancing), longer phases cost time
// linearly — the trade-off behind Lemma 5's m = m(c).
func A1ClockPeriod(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "A1",
		Title:   "ablation: phase-clock constant m (protocol Approximate)",
		Claim:   "Lemma 5: phases must be long enough for Lemmas 3 and 8; length is linear in m",
		Columns: []string{"n", "m", "trials", "correct", "T/(n ln² n) mean"},
	}
	ns := o.sizes([]int{1024, 4096}, []int{512})
	for _, n := range ns {
		for _, m := range []int{8, 16, 32, 64} {
			// Cap the budget explicitly: misconfigured clocks (m too
			// small) never converge and would otherwise burn the
			// engine's generous default.
			capI := int64(600 * nLog2N(n))
			outs := runMany(func(int) sim.Protocol {
				return sim.NewSpecAgent(core.NewApproximateSpec(core.Config{N: n, ClockM: m}).Spec)
			}, o.trials(4), sim.Config{Seed: o.Seed + uint64(n*m), MaxInteractions: capI}, o.Parallelism)
			lo, hi := int64(sim.Log2Floor(n)), int64(sim.Log2Ceil(n))
			correct := 0
			for _, out := range outs {
				if !out.res.Converged {
					continue
				}
				if v := out.p.(*sim.SpecAgent).Output(0); v == lo || v == hi {
					correct++
				}
			}
			norms := normTimes(outs, nLog2N(n))
			tbl.AddRow(itoa(n), itoa(m), itoa(len(outs)),
				pct(float64(correct)/float64(len(outs))), f2(stats.Mean(norms)))
		}
	}
	tbl.AddNote("small m may reduce correctness (balancing does not finish within a phase); larger m raises time linearly")
	return tbl
}

// A2Shift ablates the junta-level exponent shift of CountExact's
// Approximation Stage: smaller shifts mean bigger per-phase load
// explosions (fewer phases, coarser k), larger shifts the opposite.
func A2Shift(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "A2",
		Title:   "ablation: load-explosion shift (CountExact, Algorithm 4)",
		Claim:   "Lemma 10: ι = O(1/η) phases with k = log n ± 3 for any constant η",
		Columns: []string{"n", "shift", "trials", "exact", "T/(n ln n) mean"},
	}
	ns := o.sizes([]int{1024, 4096}, []int{512})
	for _, n := range ns {
		for _, shift := range []int{1, 2, 3, 4, 5} {
			outs := runMany(func(int) sim.Protocol {
				return sim.NewSpecAgent(core.NewCountExactSpec(core.Config{N: n, Shift: shift}).Spec)
			}, o.trials(4), sim.Config{Seed: o.Seed + uint64(n*shift)}, o.Parallelism)
			exact := 0
			for _, out := range outs {
				if out.res.Converged && sim.AllOutputsEqual(out.p, int64(n)) {
					exact++
				}
			}
			norms := normTimes(outs, nLogN(n))
			tbl.AddRow(itoa(n), itoa(shift), itoa(len(outs)),
				pct(float64(exact)/float64(len(outs))), f2(stats.Mean(norms)))
		}
	}
	return tbl
}

// A3FastLeaderRounds ablates the number of sample/broadcast rounds of
// FastLeaderElection: fewer rounds raise the multi-leader probability.
func A3FastLeaderRounds(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "A3",
		Title:   "ablation: FastLeaderElection rounds",
		Claim:   "Lemma 7: collision probability ≈ n²·2^(−rounds·bits); a constant number of rounds suffices",
		Columns: []string{"n", "rounds", "trials", "unique leader", "T/(n ln n) mean"},
	}
	ns := o.sizes([]int{1024, 8192}, []int{512})
	for _, n := range ns {
		for _, rounds := range []int{1, 2, 3, 4} {
			outs := runMany(func(int) sim.Protocol {
				return leader.NewFastProtocol(n, clock.DefaultM, 2*sim.Log2Ceil(n), rounds)
			}, o.trials(2), sim.Config{
				Seed:            o.Seed + uint64(n*rounds),
				MaxInteractions: int64(nLogN(n)) * 400,
			}, o.Parallelism)
			unique := 0
			for _, out := range outs {
				if out.res.Converged && out.p.(*leader.FastProtocol).Leaders() == 1 {
					unique++
				}
			}
			norms := normTimes(outs, nLogN(n))
			tbl.AddRow(itoa(n), itoa(rounds), itoa(len(outs)),
				pct(float64(unique)/float64(len(outs))), f2(stats.Mean(norms)))
		}
	}
	return tbl
}
