package exp

import (
	"popcount/internal/sim"
)

// E23InternedThroughput measures the engine gap on the interned
// product-state protocols (Approximate and CountExact) at small to
// medium n — the regime where the agent array is still practical and
// the count forms used to trail it ~2× because every Delta call paid
// struct decode + rule + canonicalize + two interner lookups. The
// code-indexed successor memo (sim.DeltaMemo) collapses repeat
// resolutions to one window lookup, so the count and batched
// columns here gate the memo's reason to exist: interactions/s on the
// count engine roughly doubles against the pre-memo baseline while
// every deterministic counter (trials, interactions, delta calls,
// epochs) stays bit-identical — the memo may only change speed, never
// the trajectory.
func E23InternedThroughput(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:    "E23",
		Title: "interned-protocol small-n throughput",
		Claim: "extension: code-indexed successor memoization closes the interner gap of the count engines",
		Columns: []string{"protocol", "engine", "n", "trials", "conv",
			"T_C mean", "wall s/run", "interactions/s"},
	}

	type row struct {
		proto   string
		engine  string
		n       int
		batched bool
	}
	var rows []row
	for _, n := range o.sizes([]int{1 << 12, 1 << 14}, []int{1 << 12}) {
		for _, proto := range []string{"approximate", "exact"} {
			rows = append(rows,
				row{proto, "agent", n, false},
				row{proto, "count", n, false},
				row{proto, "count-batched", n, true},
			)
		}
	}
	if !o.Quick && len(o.Sizes) == 0 {
		// The batched planner amortizes whole epochs, so it alone
		// stretches an interned protocol to the large-n edge of the
		// sweep; the sequential columns stay at small n where their
		// Θ(T_C) per-interaction loop is affordable. Approximate only:
		// CountExact discovers a product alphabet superlinear in n
		// (~136k interned codes already at n = 2¹²), so at 2²⁰ the
		// planner's occupied-pair work swamps the epochs it amortizes —
		// the same quadratic wall E18 documents for the exact backup,
		// hit here through the interner instead of the merge chain.
		rows = append(rows, row{"approximate", "count-batched", 1 << 20, true})
	}

	for _, rw := range rows {
		trials := o.trials(8)
		if rw.n >= 1<<20 {
			// The large-n appendix row prices amortization, not
			// variance; two trials keep the full sweep minutes long.
			trials = 2
		}
		// CheckEvery n (the cadence E18 uses for leader): the interned
		// predicates scan the occupied alphabet, and a tighter cadence
		// would measure the predicate, not the Delta path under test.
		cfg := sim.Config{Seed: o.Seed + uint64(rw.n), CheckEvery: int64(rw.n)}
		runEngineRows(&tbl, rw.proto, rw.engine, rw.n, trials, cfg, rw.batched)
	}
	tbl.AddNote("interned specs resolve Delta through the code-indexed successor memo (sim.DeltaMemo); " +
		"the memo changes wall clock only — all counters are bit-identical to unmemoized runs")
	tbl.AddNote("all counters are machine-independent functions of the seeds; " +
		"cmd/benchdiff gates them exactly and wall clock loosely")
	return tbl
}
