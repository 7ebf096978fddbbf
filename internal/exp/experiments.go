package exp

import (
	"math"

	"popcount/internal/backup"
	"popcount/internal/balance"
	"popcount/internal/baseline"
	"popcount/internal/clock"
	"popcount/internal/core"
	"popcount/internal/epidemic"
	"popcount/internal/junta"
	"popcount/internal/leader"
	"popcount/internal/sim"
	"popcount/internal/stats"
)

// E1Broadcast reproduces Lemma 3: one-way epidemics complete within
// O(n log n) interactions w.h.p.
func E1Broadcast(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "E1",
		Title:   "one-way epidemics (broadcast)",
		Claim:   "Lemma 3: T_bc = O(n log n) w.h.p.",
		Columns: []string{"n", "trials", "conv", "T/(n ln n) mean", "T/(n ln n) max"},
	}
	ns := o.sizes([]int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16}, []int{1 << 8, 1 << 11})
	var fitN []int
	var fitT []float64
	for _, n := range ns {
		outs := runMany(func(int) sim.Protocol { return sim.NewSpecAgent(epidemic.NewSingleSourceSpec(n, true)) },
			o.trials(1), sim.Config{Seed: o.Seed + uint64(n), CheckEvery: int64(n) / 4}, o.Parallelism)
		norms := normTimes(outs, nLogN(n))
		s, _ := stats.Summarize(norms)
		tbl.AddRow(itoa(n), itoa(len(outs)), pct(convRate(outs)), f2(s.Mean), f2(s.Max))
		fitN = append(fitN, n)
		fitT = append(fitT, meanInteractions(outs))
	}
	fitNote(&tbl, fitN, fitT, "≈1 (×log n)")
	return tbl
}

// E2Junta reproduces Lemma 4: the junta process settles in O(n log n)
// interactions with level* ∈ [log log n − 4, log log n + 8] and a junta
// of size O(√n·log n).
func E2Junta(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "E2",
		Title:   "junta process",
		Claim:   "Lemma 4: inactive within O(n log n); log log n − 4 ≤ level* ≤ log log n + 8; junta size O(√n log n)",
		Columns: []string{"n", "trials", "level* (min..max)", "loglogn", "junta size mean", "√n·log n", "settle/(n ln n)", "window ok"},
	}
	ns := o.sizes([]int{1 << 10, 1 << 12, 1 << 14, 1 << 16}, []int{1 << 10, 1 << 13})
	for _, n := range ns {
		outs := runMany(func(int) sim.Protocol { return junta.New(n) },
			o.trials(1), sim.Config{Seed: o.Seed + uint64(n)}, o.Parallelism)
		loglogn := math.Log2(math.Log2(float64(n)))
		minL, maxL := 255, 0
		var sizes, norms []float64
		okWindow := 0
		for _, out := range outs {
			p := out.p.(*junta.Protocol)
			l := p.MaxLevelReached()
			if l < minL {
				minL = l
			}
			if l > maxL {
				maxL = l
			}
			sizes = append(sizes, float64(p.JuntaSize()))
			norms = append(norms, float64(p.SettleTime())/nLogN(n))
			if float64(l) >= loglogn-4 && float64(l) <= loglogn+8 {
				okWindow++
			}
		}
		tbl.AddRow(itoa(n), itoa(len(outs)),
			itoa(minL)+".."+itoa(maxL), f2(loglogn),
			f1(stats.Mean(sizes)), f1(math.Sqrt(float64(n))*math.Log2(float64(n))),
			f2(stats.Mean(norms)), pct(float64(okWindow)/float64(len(outs))))
	}
	return tbl
}

// E3PhaseClock reproduces Lemma 5: phase intervals have length Θ(n log n)
// with properly nested phases, for several clock constants m.
func E3PhaseClock(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "E3",
		Title:   "junta-driven phase clock",
		Claim:   "Lemma 5: c·n·log n ≤ D_i ≤ c·n·log n + Θ(n log n) for m = m(c) = O(1)",
		Columns: []string{"n", "m", "phases ok", "D/(n ln n) mean", "D/(n ln n) min", "D/(n ln n) max"},
	}
	ns := o.sizes([]int{1 << 10, 1 << 13, 1 << 15}, []int{1 << 10, 1 << 13})
	for _, n := range ns {
		for _, m := range []int{16, 32, 64} {
			j := 2 * sim.Log2Ceil(n)
			p := clock.NewProtocol(n, m, j, 6)
			cfg := sim.Config{Seed: o.Seed + uint64(n*m), MaxInteractions: int64(n) * 20000}
			res, err := sim.Run(p, cfg)
			if err != nil {
				panic(err)
			}
			conv := int64(0)
			if res.Converged {
				conv = 1
			}
			countTrials(1, conv, res.Total)
			var lens []float64
			ok := 0
			for i := 1; i <= 4; i++ {
				if ds, de, valid := p.PhaseInterval(i); valid {
					ok++
					lens = append(lens, float64(de-ds)/nLogN(n))
				}
			}
			s, err := stats.Summarize(lens)
			if err != nil {
				tbl.AddRow(itoa(n), itoa(m), "0/4", "n/a", "n/a", "n/a")
				continue
			}
			tbl.AddRow(itoa(n), itoa(m), itoa(ok)+"/4", f2(s.Mean), f2(s.Min), f2(s.Max))
		}
	}
	tbl.AddNote("phase length grows linearly in m and is flat in n, as Lemma 5 requires")
	return tbl
}

// E4LeaderElect reproduces Lemma 6: leader_elect elects a unique leader
// within O(n log² n) interactions.
func E4LeaderElect(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "E4",
		Title:   "slow leader election (leader_elect, [GS18])",
		Claim:   "Lemma 6: unique leader, stabilizes in O(n log² n), O(log log n) states",
		Columns: []string{"n", "trials", "unique", "T/(n ln² n) mean", "T/(n ln² n) max"},
	}
	ns := o.sizes([]int{1 << 9, 1 << 11, 1 << 13, 1 << 15}, []int{1 << 9, 1 << 12})
	var fitN []int
	var fitT []float64
	for _, n := range ns {
		outs := runMany(func(int) sim.Protocol {
			return leader.NewProtocol(n, clock.DefaultM, 2*sim.Log2Ceil(n))
		}, o.trials(2), sim.Config{Seed: o.Seed + uint64(n)}, o.Parallelism)
		unique := 0
		for _, out := range outs {
			if out.res.Converged && out.p.(*leader.Protocol).Leaders() == 1 {
				unique++
			}
		}
		norms := normTimes(outs, nLog2N(n))
		s, _ := stats.Summarize(norms)
		tbl.AddRow(itoa(n), itoa(len(outs)), pct(float64(unique)/float64(len(outs))), f2(s.Mean), f2(s.Max))
		fitN = append(fitN, n)
		fitT = append(fitT, meanInteractions(outs))
	}
	fitNote(&tbl, fitN, fitT, "≈1 (×log² n)")
	return tbl
}

// E5FastLeader reproduces Lemma 7: FastLeaderElection elects a unique
// leader within O(n log n) interactions.
func E5FastLeader(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "E5",
		Title:   "FastLeaderElection ([BEFKKR18], Appendix D)",
		Claim:   "Lemma 7: unique leader, stabilizes in O(n log n), Õ(n) states",
		Columns: []string{"n", "trials", "unique", "T/(n ln n) mean", "T/(n ln n) max"},
	}
	ns := o.sizes([]int{1 << 9, 1 << 11, 1 << 13, 1 << 15}, []int{1 << 9, 1 << 12})
	var fitN []int
	var fitT []float64
	for _, n := range ns {
		outs := runMany(func(int) sim.Protocol {
			return leader.NewFastProtocol(n, clock.DefaultM, 2*sim.Log2Ceil(n), leader.DefaultFastRounds)
		}, o.trials(2), sim.Config{Seed: o.Seed + uint64(n)}, o.Parallelism)
		unique := 0
		for _, out := range outs {
			if out.res.Converged && out.p.(*leader.FastProtocol).Leaders() == 1 {
				unique++
			}
		}
		norms := normTimes(outs, nLogN(n))
		s, _ := stats.Summarize(norms)
		tbl.AddRow(itoa(n), itoa(len(outs)), pct(float64(unique)/float64(len(outs))), f2(s.Mean), f2(s.Max))
		fitN = append(fitN, n)
		fitT = append(fitT, meanInteractions(outs))
	}
	fitNote(&tbl, fitN, fitT, "≈1 (×log n)")
	return tbl
}

// E6PowerOfTwo reproduces Lemma 8: the powers-of-two process started with
// 2^κ ≤ ¾·n tokens reaches maximum load 1 within 16·n·log n interactions,
// while 2^κ ≥ n cannot (pigeonhole).
func E6PowerOfTwo(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "E6",
		Title:   "powers-of-two load balancing",
		Claim:   "Lemma 8: max load 1 within 16·n·log n when 2^κ ≤ ¾n; impossible when 2^κ ≥ n",
		Columns: []string{"n", "case", "κ", "trials", "done in bound", "T/(n ln n) mean"},
	}
	ns := o.sizes([]int{1 << 9, 1 << 12, 1 << 15}, []int{1 << 9, 1 << 12})
	for _, n := range ns {
		underK := sim.Log2Floor(3 * n / 4)
		overK := sim.Log2Ceil(n)
		for _, c := range []struct {
			name  string
			kappa int
			want  bool
		}{{"2^κ ≤ ¾n", underK, true}, {"2^κ ≥ n", overK, false}} {
			limit := int64(16 * float64(n) * math.Log2(float64(n)))
			outs := runMany(func(int) sim.Protocol { return balance.NewPowers(n, c.kappa, true) },
				o.trials(1), sim.Config{Seed: o.Seed + uint64(n+c.kappa), MaxInteractions: limit}, o.Parallelism)
			norms := normTimes(outs, nLogN(n))
			mean := "n/a"
			if len(norms) > 0 {
				mean = f2(stats.Mean(norms))
			}
			tbl.AddRow(itoa(n), c.name, itoa(c.kappa), itoa(len(outs)), pct(convRate(outs)), mean)
		}
	}
	tbl.AddNote("the overloaded case must show 0%% completion — some agent keeps load ≥ 2 forever")
	return tbl
}

// E7Search reproduces Lemma 9: the Search Protocol stops with
// ¾·n < 2^k ≤ 2^⌈log n⌉ after at most ⌈log n⌉ rounds (measured through
// protocol Approximate's final k).
func E7Search(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "E7",
		Title:   "Search Protocol result window",
		Claim:   "Lemma 9: searchDone with ¾·n < 2^k ≤ 2^⌈log n⌉ after ≤ ⌈log n⌉ rounds",
		Columns: []string{"n", "trials", "conv", "window ok", "2^k/n mean"},
	}
	ns := o.sizes([]int{300, 1000, 3000, 10000}, []int{300, 1500})
	for _, n := range ns {
		outs := runMany(func(int) sim.Protocol {
			return sim.NewSpecAgent(core.NewApproximateSpec(core.Config{N: n}).Spec)
		}, o.trials(2), sim.Config{Seed: o.Seed + uint64(n)}, o.Parallelism)
		okWindow := 0
		var ratios []float64
		for _, out := range outs {
			if !out.res.Converged {
				continue
			}
			est := float64(approxEstimate(out.p.(*sim.SpecAgent).Output(0)))
			ratios = append(ratios, est/float64(n))
			if est > 0.75*float64(n) && est <= math.Pow(2, float64(sim.Log2Ceil(n))) {
				okWindow++
			}
		}
		tbl.AddRow(itoa(n), itoa(len(outs)), pct(convRate(outs)),
			pct(float64(okWindow)/float64(len(outs))), f2(stats.Mean(ratios)))
	}
	return tbl
}

// E8Approximate reproduces Theorem 1.1: protocol Approximate outputs
// ⌊log n⌋ or ⌈log n⌉ w.h.p. within O(n log² n) interactions using
// O(log n · log log n) states. Every engine column derives from the one
// core.NewApproximateSpec rule: the agent rows run the spec's agent
// adapter, the count and batched rows the spec's count form — the
// batched column reaches n = 10⁸, three orders of magnitude past the
// agent engine.
func E8Approximate(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "E8",
		Title:   "protocol Approximate (Algorithm 2)",
		Claim:   "Theorem 1.1: output ∈ {⌊log n⌋, ⌈log n⌉} w.h.p.; O(n log² n) interactions; O(log n·log log n) states",
		Columns: []string{"n", "engine", "trials", "correct", "T/(n ln² n) mean", "max k", "max level"},
	}
	type row struct {
		n      int
		engine string
	}
	var rows []row
	ns := o.sizes([]int{1 << 9, 1 << 11, 1 << 13, 10000}, []int{1 << 9, 1 << 11})
	for _, n := range ns {
		rows = append(rows, row{n, "agent"})
	}
	if len(o.Sizes) == 0 {
		if o.Quick {
			// One exact-count row at agent scale, one batched row at the
			// scale where batching actually engages (below ~2¹⁴ the
			// occupied alphabet squares past the epoch cap and the
			// planner's amortization gate degrades to exact stepping —
			// a row there would just duplicate the count column).
			rows = append(rows,
				row{1 << 9, "count"},
				row{1 << 16, "count-batched"})
		} else {
			rows = append(rows,
				row{1 << 9, "count"}, row{1 << 11, "count"},
				row{1 << 9, "count-batched"}, row{1 << 11, "count-batched"},
				row{1 << 13, "count-batched"}, row{10000, "count-batched"},
				// The scaled row: the count-batched engine simulates the
				// Θ(n log² n) chain at n = 10⁸ in minutes (the agent
				// engine would need ~100 GB for the array alone).
				row{1e8, "count-batched"})
		}
	} else {
		for _, n := range ns {
			rows = append(rows, row{n, "count-batched"})
		}
	}
	var fitN []int
	var fitT []float64
	for _, rw := range rows {
		trials := o.trials(2)
		if rw.engine != "agent" && rw.n >= 1<<14 {
			trials = 2
		}
		if rw.n >= 1e7 {
			trials = 1
		}
		mean := approxEngineRows(&tbl, rw.n, rw.engine, trials, o.Parallelism, o.Seed+uint64(3*rw.n))
		if rw.engine == "agent" {
			fitN = append(fitN, rw.n)
			fitT = append(fitT, mean)
		}
	}
	fitNote(&tbl, fitN, fitT, "≈1 (×log² n)")
	tbl.AddNote("all engine columns derive from one transition spec (core.NewApproximateSpec);" +
		" count rows report the plurality (consensus) output's correctness")
	return tbl
}

// specCellRun is one finished trial of an engine-column cell: exactly
// one of agent (the "agent" column) and eng (the count columns) is
// non-nil, so callers can read column-appropriate outputs.
type specCellRun struct {
	res   sim.Result
	agent *sim.SpecAgent
	eng   *sim.CountEngine
}

// runSpecCells runs the trials of one engine-column cell — "agent",
// "count" or "count-batched" — in parallel through the engine's shared
// trial drivers (trial i uses seed TrialSeed(cfg.Seed, i), so results
// and the deterministic counters are independent of parallelism). It
// is the one engine-dispatch body behind every engine-column
// experiment (E9, E13/E14, E16, E17); E8 drives the runners directly
// for its per-trial metrics. mkSpec is invoked once per trial, on the
// trial's own goroutine — each spec owns its interner, which must
// never be shared across trials (see sim.Interner) — and may record
// the spec in a trial-indexed slot for post-run decoding.
func runSpecCells(mkSpec func(trial int) *sim.Spec, engine string, trials, par int, cfg sim.Config) []specCellRun {
	out := make([]specCellRun, trials)
	if engine == "agent" {
		runs, err := sim.RunTrials(func(tr int) sim.Protocol {
			out[tr].agent = sim.NewSpecAgent(mkSpec(tr))
			return out[tr].agent
		}, trials, cfg, sim.TrialOptions{Parallelism: par})
		if err != nil {
			panic(err) // sizes are static; an error is a programming bug
		}
		for i, r := range runs {
			out[i].res = r.Result
		}
		return out
	}
	cfg.BatchSteps = engine == "count-batched"
	runs, err := sim.RunCountTrials(func(tr int) sim.CountProtocol {
		return sim.NewSpecCount(mkSpec(tr))
	}, trials, cfg, sim.CountTrialOptions{Parallelism: par})
	if err != nil {
		panic(err)
	}
	for i, r := range runs {
		countEngineStats(r.Engine.Stats())
		out[i] = specCellRun{res: r.Result, eng: r.Engine}
	}
	return out
}

// approxEngineRows runs one (n, engine) cell of E8 — trials in
// parallel through the engine's shared trial drivers, per-trial specs
// kept for the configuration-level metrics — and appends its row,
// returning the mean convergence time for the scaling fit.
func approxEngineRows(tbl *Table, n int, engine string, trials, par int, seed uint64) (mean float64) {
	lo, hi := int64(sim.Log2Floor(n)), int64(sim.Log2Ceil(n))
	conv, correct, maxK, maxLvl := 0, 0, 0, 0
	var norms []float64
	var interactions int64
	specs := make([]*core.ApproximateSpec, trials)
	cfg := sim.Config{Seed: seed, CheckEvery: int64(n)}

	tally := func(tr int, res sim.Result, view sim.ConfigView, ok bool) {
		interactions += res.Total
		if res.Converged {
			conv++
			norms = append(norms, float64(res.Interactions))
		}
		if ok {
			correct++
		}
		m := specs[tr].Metrics(view)
		if m.MaxK > maxK {
			maxK = m.MaxK
		}
		if m.MaxLevel > maxLvl {
			maxLvl = m.MaxLevel
		}
	}

	if engine == "agent" {
		runs, err := sim.RunTrials(func(tr int) sim.Protocol {
			specs[tr] = core.NewApproximateSpec(core.Config{N: n})
			return sim.NewSpecAgent(specs[tr].Spec)
		}, trials, cfg, sim.TrialOptions{Parallelism: par})
		if err != nil {
			panic(err) // sizes are static; an error is a programming bug
		}
		for tr, r := range runs {
			agent := r.Protocol.(*sim.SpecAgent)
			ok := r.Result.Converged
			if ok {
				for i := 0; i < n; i++ {
					if v := agent.Output(i); v != lo && v != hi {
						ok = false
						break
					}
				}
			}
			tally(tr, r.Result, agent.View(), ok)
		}
	} else {
		cfg.BatchSteps = engine == "count-batched"
		runs, err := sim.RunCountTrials(func(tr int) sim.CountProtocol {
			specs[tr] = core.NewApproximateSpec(core.Config{N: n})
			return sim.NewSpecCount(specs[tr].Spec)
		}, trials, cfg, sim.CountTrialOptions{Parallelism: par})
		if err != nil {
			panic(err)
		}
		for tr, r := range runs {
			countEngineStats(r.Engine.Stats())
			ok := false
			if r.Result.Converged {
				out, has := r.Engine.PluralityOutput()
				ok = has && (out == lo || out == hi)
			}
			tally(tr, r.Result, r.Engine.Counts(), ok)
		}
	}
	countTrials(int64(trials), int64(conv), interactions)
	mean = stats.Mean(norms)
	tbl.AddRow(itoa(n), engine, itoa(trials), pct(float64(correct)/float64(trials)),
		f2(mean/nLog2N(n)), itoa(maxK), itoa(maxLvl))
	return mean
}

// E9StableApproximate reproduces Theorem 1.2: the hybrid stable variant
// stabilizes correctly both on the clean path and under fault
// injection. Both engine columns derive from one transition spec
// (core.NewStableApproximateSpec); the fault-injected rows stay on the
// agent engine — the backup runs Θ(n² log² n) interactions over a
// scattered pile alphabet, exactly the regime the batch planner's
// amortization gate degrades to exact per-interaction stepping (the
// standalone backup specs in E13/E14, which opt into the skip path,
// are the count-engine form of that phase).
func E9StableApproximate(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "E9",
		Title:   "stable protocol Approximate (Algorithm 7 + backup)",
		Claim:   "Theorem 1.2: always correct; w.h.p. stabilizes in O(n log² n) with O(log² n·log log n) states",
		Columns: []string{"n", "mode", "engine", "trials", "correct", "error raised", "T/(n ln² n) mean"},
	}
	ns := o.sizes([]int{512, 1024}, []int{300})
	for _, n := range ns {
		for _, mode := range []string{"clean", "fault-injected"} {
			fault := mode == "fault-injected"
			engines := []string{"agent"}
			if !fault {
				engines = append(engines, "count", "count-batched")
			}
			var capI int64
			if fault {
				capI = int64(n) * int64(n) * 800 // backup needs Θ(n² log² n)
			}
			for _, engine := range engines {
				stableApproxEngineRow(&tbl, n, mode, engine, o.trials(4),
					o.Parallelism, o.Seed+uint64(5*n), capI)
			}
		}
	}
	tbl.AddNote("fault injection corrupts the leader's k by −4; errors must fire on every faulted run and on (almost) no clean run")
	tbl.AddNote("both engine columns derive from one transition spec; fault rows are agent-only (see the doc comment)")
	return tbl
}

// stableApproxEngineRow runs one (n, mode, engine) cell of E9 and
// appends its row.
func stableApproxEngineRow(tbl *Table, n int, mode, engine string, trials, par int, seed uint64, capI int64) {
	fault := mode == "fault-injected"
	lo, hi := int64(sim.Log2Floor(n)), int64(sim.Log2Ceil(n))
	conv, correct, errored := 0, 0, 0
	var norms []float64
	var interactions int64
	specs := make([]*core.StableApproximateSpec, trials)
	cfg := sim.Config{Seed: seed, CheckEvery: int64(n), MaxInteractions: capI}
	cells := runSpecCells(func(tr int) *sim.Spec {
		specs[tr] = core.NewStableApproximateSpec(core.Config{N: n}, fault)
		return specs[tr].Spec
	}, engine, trials, par, cfg)
	for tr, r := range cells {
		var out int64
		var raised bool
		if r.agent != nil {
			out = r.agent.Output(0)
			raised = r.agent.Errored()
		} else {
			out, _ = r.eng.PluralityOutput()
			raised = specs[tr].Spec.Errored(r.eng.Counts())
		}
		interactions += r.res.Total
		if raised {
			errored++
		}
		if r.res.Converged {
			conv++
			norms = append(norms, float64(r.res.Interactions)/nLog2N(n))
			if fault {
				// After the backup path only ⌊log n⌋ is possible.
				if out == lo {
					correct++
				}
			} else if out == lo || out == hi {
				correct++
			}
		}
	}
	countTrials(int64(trials), int64(conv), interactions)
	tbl.AddRow(itoa(n), mode, engine, itoa(trials),
		pct(float64(correct)/float64(trials)),
		pct(float64(errored)/float64(trials)), f2(stats.Mean(norms)))
}

// CountExactSuite runs protocol CountExact once per (n, trial) and
// derives the three related tables E10 (Lemma 10), E11 (Lemma 11) and
// E12 (Theorem 2) from the same runs.
func CountExactSuite(o Options) (e10, e11, e12 Table) {
	o = o.withDefaults()
	ns := o.sizes([]int{1 << 9, 1 << 11, 1 << 13, 10000}, []int{1 << 9, 1 << 11})

	e10 = Table{
		ID:      "E10",
		Title:   "Approximation Stage (Algorithm 4)",
		Claim:   "Lemma 10: k = log n ± 3 after O(n log n) interactions",
		Columns: []string{"n", "trials", "|k − log n| ≤ 3", "k−log n (min..max)"},
	}
	e11 = Table{
		ID:      "E11",
		Title:   "Refinement Stage (Algorithm 5)",
		Claim:   "Lemma 11: all agents output ω(v) = n after O(n log n) interactions",
		Columns: []string{"n", "trials", "all agents exact"},
	}
	e12 = Table{
		ID:      "E12",
		Title:   "protocol CountExact (Algorithm 3)",
		Claim:   "Theorem 2: exact n; stabilizes in O(n log n); Õ(n) states",
		Columns: []string{"n", "trials", "exact", "T/(n ln n) mean", "max load/n²"},
	}

	var fitN []int
	var fitT []float64
	for _, n := range ns {
		specs := make([]*core.CountExactSpec, o.trials(2))
		outs := runMany(func(tr int) sim.Protocol {
			specs[tr] = core.NewCountExactSpec(core.Config{N: n})
			return sim.NewSpecAgent(specs[tr].Spec)
		}, len(specs), sim.Config{Seed: o.Seed + uint64(7*n)}, o.Parallelism)
		metrics := make([]core.StateMetrics, len(outs))
		for i, out := range outs {
			metrics[i] = specs[i].Metrics(out.p.(*sim.SpecAgent).View())
		}

		// E10: quality of the approximation k.
		logn := math.Log2(float64(n))
		okK := 0
		minD, maxD := math.Inf(1), math.Inf(-1)
		for _, m := range metrics {
			d := float64(m.MaxK) - logn
			if d < minD {
				minD = d
			}
			if d > maxD {
				maxD = d
			}
			if math.Abs(d) <= 3 {
				okK++
			}
		}
		e10.AddRow(itoa(n), itoa(len(outs)), pct(float64(okK)/float64(len(outs))),
			f2(minD)+".."+f2(maxD))

		// E11 and E12: exactness, time and state usage.
		exact := 0
		var maxLoadRatio float64
		for i, out := range outs {
			if out.res.Converged && sim.AllOutputsEqual(out.p, int64(n)) {
				exact++
			}
			if r := float64(metrics[i].MaxLoad) / (float64(n) * float64(n)); r > maxLoadRatio {
				maxLoadRatio = r
			}
		}
		exactRate := pct(float64(exact) / float64(len(outs)))
		e11.AddRow(itoa(n), itoa(len(outs)), exactRate)
		norms := normTimes(outs, nLogN(n))
		e12.AddRow(itoa(n), itoa(len(outs)), exactRate, f2(stats.Mean(norms)), f1(maxLoadRatio))
		fitN = append(fitN, n)
		fitT = append(fitT, meanInteractions(outs))
	}
	fitNote(&e12, fitN, fitT, "≈1 (×log n)")
	return e10, e11, e12
}

// E10ApproxStage reproduces Lemma 10 (runs the shared CountExact suite).
func E10ApproxStage(o Options) Table { t, _, _ := CountExactSuite(o); return t }

// E11Refine reproduces Lemma 11 (runs the shared CountExact suite).
func E11Refine(o Options) Table { _, t, _ := CountExactSuite(o); return t }

// E12CountExact reproduces Theorem 2 (runs the shared CountExact suite).
func E12CountExact(o Options) Table { _, _, t := CountExactSuite(o); return t }

// backupEngineRows runs one backup experiment cell per engine from one
// spec: the agent column via the spec's agent adapter, the count and
// batched columns via its count form. The backup protocols' Θ(n²·…)
// interaction counts are where the count engine's skip path shines —
// the no-op-dominated equilibrium reduces the run to roughly the number
// of merges — so the count columns also extend the sweep beyond the
// agent-practical sizes.
func backupEngineRows(tbl *Table, mkSpec func() *sim.Spec, n int, engine string,
	trials, par int, seed uint64, capI int64, denom float64) {
	conv := 0
	var norms []float64
	var interactions int64
	cfg := sim.Config{Seed: seed, CheckEvery: int64(n), MaxInteractions: capI}
	for _, r := range runSpecCells(func(int) *sim.Spec { return mkSpec() }, engine, trials, par, cfg) {
		interactions += r.res.Total
		if r.res.Converged {
			conv++
			norms = append(norms, float64(r.res.Interactions)/denom)
		}
	}
	countTrials(int64(trials), int64(conv), interactions)
	tbl.AddRow(itoa(n), engine, itoa(trials), pct(float64(conv)/float64(trials)), f2(stats.Mean(norms)))
}

// E13BackupApprox reproduces Lemma 12: the approximate backup converges
// to the binary representation of n within O(n² log² n) interactions.
// All engine columns derive from backup.NewApproxSpec.
func E13BackupApprox(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "E13",
		Title:   "backup protocol for approximate counting (Appendix C.1)",
		Claim:   "Lemma 12: |K_i| = n_i, kmax = ⌊log n⌋ everywhere; O(n² log² n) interactions; ≤ (log n+1)² states",
		Columns: []string{"n", "engine", "trials", "binary rep ok", "T/(n² ln n) mean"},
	}
	ns := o.sizes([]int{13, 32, 100, 256}, []int{13, 64})
	for _, n := range ns {
		for _, engine := range []string{"agent", "count", "count-batched"} {
			backupEngineRows(&tbl, func() *sim.Spec { return backup.NewApproxSpec(n) },
				n, engine, o.trials(2), o.Parallelism, o.Seed+uint64(n),
				int64(n)*int64(n)*2000, n2LogN(n))
		}
	}
	if len(o.Sizes) == 0 && !o.Quick {
		// The count engine's skip path turns the Θ(n² log² n) run into
		// ~#merges: sizes far past the agent column become cheap.
		backupEngineRows(&tbl, func() *sim.Spec { return backup.NewApproxSpec(4096) },
			4096, "count", 2, o.Parallelism, o.Seed+4096, int64(4096)*int64(4096)*2000, n2LogN(4096))
	}
	tbl.AddNote("all engine columns derive from one transition spec (backup.NewApproxSpec)")
	return tbl
}

// E14BackupExact reproduces Lemma 13: the exact backup outputs n within
// O(n² log n) interactions. All engine columns derive from
// backup.NewExactSpec.
func E14BackupExact(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "E14",
		Title:   "backup protocol for exact counting (Appendix C.2)",
		Claim:   "Lemma 13: every agent outputs n; O(n² log n) interactions",
		Columns: []string{"n", "engine", "trials", "exact", "T/(n² ln n) mean"},
	}
	ns := o.sizes([]int{16, 64, 256, 512}, []int{16, 128})
	for _, n := range ns {
		for _, engine := range []string{"agent", "count", "count-batched"} {
			backupEngineRows(&tbl, func() *sim.Spec { return backup.NewExactSpec(n) },
				n, engine, o.trials(2), o.Parallelism, o.Seed+uint64(n),
				int64(n)*int64(n)*1000, n2LogN(n))
		}
	}
	if len(o.Sizes) == 0 && !o.Quick {
		backupEngineRows(&tbl, func() *sim.Spec { return backup.NewExactSpec(8192) },
			8192, "count", 2, o.Parallelism, o.Seed+8192, int64(8192)*int64(8192)*1000, n2LogN(8192))
	}
	tbl.AddNote("all engine columns derive from one transition spec (backup.NewExactSpec)")
	return tbl
}

// E15Baselines compares CountExact against the Θ(n²) token-bag baseline
// (Section 1's simple uniform protocol) and Approximate against the
// geometric-maximum estimator.
func E15Baselines(o Options) Table {
	o = o.withDefaults()
	tbl := Table{
		ID:      "E15",
		Title:   "baseline comparison",
		Claim:   "Section 1: CountExact (O(n log n)) vs token bags (Θ(n²)); Approximate (⌊log n⌋/⌈log n⌉) vs geometric estimator (log n ± O(1))",
		Columns: []string{"n", "bag T mean", "CountExact T mean", "speedup", "geo |err| mean", "Approx |err| mean"},
	}
	ns := o.sizes([]int{1024, 4096, 8192, 16384}, []int{1024, 4096})
	for _, n := range ns {
		trials := o.trials(2)
		bag := runMany(func(int) sim.Protocol { return sim.NewSpecAgent(baseline.NewTokenBagSpec(n)) },
			trials, sim.Config{Seed: o.Seed + uint64(n), MaxInteractions: int64(n) * int64(n) * 200}, o.Parallelism)
		exact := runMany(func(int) sim.Protocol {
			return sim.NewSpecAgent(core.NewCountExactSpec(core.Config{N: n}).Spec)
		}, trials, sim.Config{Seed: o.Seed + uint64(2*n)}, o.Parallelism)
		geo := runMany(func(int) sim.Protocol { return sim.NewSpecAgent(baseline.NewGeometricSpec(n)) },
			trials, sim.Config{Seed: o.Seed + uint64(3*n)}, o.Parallelism)
		apx := runMany(func(int) sim.Protocol {
			return sim.NewSpecAgent(core.NewApproximateSpec(core.Config{N: n}).Spec)
		}, trials, sim.Config{Seed: o.Seed + uint64(4*n)}, o.Parallelism)

		bagT := meanInteractions(bag)
		exactT := meanInteractions(exact)
		logn := math.Log2(float64(n))
		var geoErr, apxErr []float64
		for _, out := range geo {
			if out.res.Converged {
				geoErr = append(geoErr, math.Abs(float64(out.p.(*sim.SpecAgent).Output(0))-logn))
			}
		}
		for _, out := range apx {
			if out.res.Converged {
				apxErr = append(apxErr, math.Abs(float64(out.p.(*sim.SpecAgent).Output(0))-logn))
			}
		}
		speedup := "n/a"
		if exactT > 0 {
			speedup = f1(bagT / exactT)
		}
		tbl.AddRow(itoa(n), f1(bagT), f1(exactT), speedup,
			f2(stats.Mean(geoErr)), f2(stats.Mean(apxErr)))
	}

	// Large-n extension: the geometric estimator alone, on the batched
	// count engine, whose multinomial coin-phase pre-sampling makes
	// population sizes far beyond the agent-level comparison reachable
	// — the other columns have no protocol at this scale. A Sizes
	// override scopes the table to exactly the requested sweep.
	var bigNs []int
	if len(o.Sizes) == 0 {
		bigNs = []int{1e8}
		if o.Quick {
			bigNs = []int{1 << 20}
		}
	}
	for _, n := range bigNs {
		geoErr := geoBatchedError(n, 2, o.Seed)
		// The Approximate column is a full composed-protocol run (~100 s
		// at n = 10⁸, ~5 s even at the quick 2²⁰) — worth it for the
		// recorded full table, not for the fast default suite.
		apxErr := "n/a"
		if !o.Quick {
			apxErr = f2(apxBatchedError(n, o.Seed))
		}
		tbl.AddRow(itoa(n), "n/a", "n/a", "n/a", f2(geoErr), apxErr)
	}
	tbl.AddNote("speedup must grow like n/log n; the error of Approximate is below 1 by construction")
	tbl.AddNote("the large-n rows run on the batched count engine — the geometric estimator via the" +
		" multinomial coin phase, Approximate via its interned spec (the other columns are agent-level" +
		" and stop at the sweep sizes above)")
	return tbl
}

// apxBatchedError runs protocol Approximate on the batched count
// engine and returns |consensus k − log₂ n| (one trial; the protocol's
// answer is deterministic up to the ⌊·⌋/⌈·⌉ choice).
func apxBatchedError(n int, seed uint64) float64 {
	spec := core.NewApproximateSpec(core.Config{N: n})
	eng, err := sim.NewCountEngine(sim.NewSpecCount(spec.Spec),
		sim.Config{Seed: seed + uint64(n), CheckEvery: int64(n), BatchSteps: true})
	if err != nil {
		panic(err)
	}
	res, err := eng.RunToConvergence()
	if err != nil {
		panic(err)
	}
	countTrials(1, boolToInt64(res.Converged), res.Total)
	countEngineStats(eng.Stats())
	if !res.Converged {
		return math.NaN()
	}
	out, _ := eng.PluralityOutput()
	return math.Abs(float64(out) - math.Log2(float64(n)))
}

// geoBatchedError runs the geometric estimator on the batched count
// engine and returns the mean |estimate − log₂ n| over trials.
func geoBatchedError(n, trials int, seed uint64) float64 {
	logn := math.Log2(float64(n))
	var errs []float64
	for tr := 0; tr < trials; tr++ {
		eng, err := sim.NewCountEngine(sim.NewSpecCount(baseline.NewGeometricSpec(n)),
			sim.Config{Seed: sim.TrialSeed(seed+uint64(n), tr), CheckEvery: int64(n) / 4, BatchSteps: true})
		if err != nil {
			panic(err)
		}
		res, err := eng.RunToConvergence()
		if err != nil {
			panic(err)
		}
		countTrials(1, boolToInt64(res.Converged), res.Total)
		countEngineStats(eng.Stats())
		if !res.Converged {
			continue
		}
		if out, ok := eng.PluralityOutput(); ok {
			errs = append(errs, math.Abs(float64(out)-logn))
		}
	}
	return stats.Mean(errs)
}

func boolToInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// approxEstimate converts protocol Approximate's output k into the
// population-size estimate 2^k (0 while the agent is still empty).
func approxEstimate(k int64) int64 {
	if k < 0 {
		return 0
	}
	return int64(1) << uint(k)
}
