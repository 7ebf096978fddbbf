package main

import "fmt"

// layerValues collects a traced run's per-layer metrics: the
// BENCHMARK.json set, defined for every workload, plus the
// workload-specific ones (engine rates per epoch, service phases) that
// are printed by name but not listed there.
type layerValues struct {
	vals   map[string]float64
	extras []metric
	durs   map[string][]float64 // span durations by name, seconds
	runs   []float64            // run self time per trial or job, seconds
}

func newLayerValues(p probes, spans []span) *layerValues {
	l := &layerValues{vals: map[string]float64{}, durs: durations(spans)}
	l.set("sim.memo.pairs", float64(p.memoPairs))
	l.set("sim.memo.hit_ns", p.memoHitNs)
	l.set("sim.intern.code_ns", p.internCodeNs)
	l.set("rng.pair_ns", p.pairNs)
	l.set("rng.binomial_ns", p.binomialNs)
	l.set("rng.hypergeometric_ns", p.hypergeomNs)
	l.set("countdist.find_ns", p.findNs)
	l.set("countdist.add_ns", p.addNs)
	l.extra("probe.epoch_tau", float64(p.epochTau), "count")
	l.extra("probe.epoch_occupied", float64(p.epochOccupied), "count")
	l.extra("probe.fenwick_slots", float64(p.fenwickSlots), "count")
	l.extra("probe.fenwick_occupied", float64(p.fenwickOcc), "count")

	l.set("popcount.new_simulation_ms", 1e3*l.median("setup"))
	l.set("popcount.poll_us", 1e6*l.mean("poll"))
	l.set("popcount.snapshot_ms", 1e3*l.median("snapshot"))
	l.set("popcount.restore_ms", 1e3*l.median("restore"))

	l.runs = runSelf(spans)
	l.set("popcount.run_self_s", zeroIfEmpty(l.runs, median))
	return l
}

// runSelf returns the self time of the "run" spans per operation, in
// seconds: a trial's (or job's) engine time can span several run
// segments when checkpoints interrupt it, and its polls are children.
func runSelf(spans []span) []float64 {
	self := selfTimes(spans)
	perOp := map[int]float64{}
	var order []int
	for i, s := range spans {
		if s.Name != "run" {
			continue
		}
		if _, ok := perOp[s.Op]; !ok {
			order = append(order, s.Op)
		}
		perOp[s.Op] += self[i].Seconds()
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = perOp[op]
	}
	return out
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func (l *layerValues) set(name string, v float64) { l.vals[name] = v }

func (l *layerValues) extra(name string, v float64, unit string) {
	l.extras = append(l.extras, metric{name, v, unit})
}

// median and mean summarize the durations of the spans of one name
// (0 when the run recorded none).
func (l *layerValues) median(name string) float64 { return zeroIfEmpty(l.durs[name], median) }

func (l *layerValues) mean(name string) float64 {
	return zeroIfEmpty(l.durs[name], func(xs []float64) float64 { return sum(xs) / float64(len(xs)) })
}

func zeroIfEmpty(xs []float64, f func([]float64) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return f(xs)
}

// trials sets the engine counters and rates of traced library trials.
// Counters cover the fingerprint prefix, so they are equal across runs
// at one seed; rates divide the run self time of every traced trial by
// that trial set's work.
func (l *layerValues) trials(prefix, all []trialRec, engine string) {
	w := countWork(prefix)
	var polls int64
	var snapKB []float64
	for _, t := range prefix {
		polls += t.polls
		if t.snapBytes > 0 {
			snapKB = append(snapKB, float64(t.snapBytes)/1024)
		}
	}
	l.set("popcount.polls", float64(polls))
	l.set("popcount.snapshot_kb", zeroIfEmpty(snapKB, median))
	l.counters(w)
	l.rates(countWork(all), engine)
}

// counters sets the deterministic engine counters and their ratios.
func (l *layerValues) counters(w workCounters) {
	l.set("sim.interactions", float64(w.total))
	l.set("sim.delta_calls", float64(w.deltaCalls))
	l.set("sim.batch.delta_ratio", ratio(float64(w.deltaCalls), float64(w.total)))
	l.set("sim.batch.epochs", float64(w.epochs))
	l.set("sim.batch.violation_ratio", ratio(float64(w.violations), float64(w.epochs)))
	l.set("sim.batch.half_reuse_ratio", ratio(float64(w.halfReuses), float64(w.halfReuses+w.halfDiscards)))
	l.set("sim.shard.epochs", float64(w.shardEpochs))
	l.set("sim.shard.blocks", float64(w.shardBlocks))
	l.set("sim.shard.conflict_ratio", ratio(float64(w.conflicts), float64(w.shardEpochs)))
	l.set("sim.shard.steals", float64(w.steals))
}

// rates sets the engine loop's self time per unit of work: per
// interaction on every engine, and per epoch on the batched ones.
func (l *layerValues) rates(all workCounters, engine string) {
	self := sum(l.runs)
	nsPer := 1e9 * ratio(self, float64(all.total))
	l.set("sim.ns_per_interaction", nsPer)
	switch engine {
	case "agent", "count":
		l.extra(fmt.Sprintf("sim.%s.ns_per_interaction", engine), nsPer, "ns")
	case "batch":
		l.extra("sim.batch.us_per_epoch", 1e6*ratio(self, float64(all.epochs)), "us")
	}
}

// sharded sets the sharded planner's counters and per-epoch cost from a
// traced replay with WithIntraRunParallelism.
func (l *layerValues) sharded(w workCounters, spans []span) {
	l.set("sim.shard.epochs", float64(w.shardEpochs))
	l.set("sim.shard.blocks", float64(w.shardBlocks))
	l.set("sim.shard.conflict_ratio", ratio(float64(w.conflicts), float64(w.shardEpochs)))
	l.set("sim.shard.steals", float64(w.steals))
	l.extra("sim.shard.us_per_epoch", 1e6*ratio(sum(runSelf(spans)), float64(w.shardEpochs)), "us")
	l.extra("sim.shard.interactions", float64(w.total), "count")
}

// emit copies the values into the outcome: the BENCHMARK.json set as
// gated metrics, everything as report lines.
func (l *layerValues) emit(out *outcome) {
	for _, d := range perLayer {
		if v, ok := l.vals[d.name]; ok {
			out.gated[d.name] = v
			out.add(d.name, v, d.unit)
		}
	}
	out.report = append(out.report, l.extras...)
}
