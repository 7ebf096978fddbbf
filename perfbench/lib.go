package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"popcount"
)

// libWorkload is a closed loop of whole trials through the library:
// NewSimulation, RunToConvergence, verify — lanes trials in flight,
// zero think time, trial i seeded by trialSeed(workload seed, i).
type libWorkload struct {
	alg  popcount.Algorithm
	n    int
	opts []popcount.Option
	// engine names the engine layer in the workload-specific per-layer
	// metrics (sim.<engine>.*).
	engine string
	// tinyN replaces n at smoke scale.
	tinyN int
	lanes int
	// prefix is the number of leading trials every run completes, even
	// past the deadline; the work fingerprint covers exactly them.
	prefix int
	// shards, when ≥ 2, makes the traced run replay trial 0 with
	// WithIntraRunParallelism(shards), so the sharded planner is measured
	// per layer (see README.md on why it has no workload of its own).
	shards int
}

// setupSamples is the number of NewSimulation calls each run times on
// its trial seeds before the closed loop starts, with nothing else
// running: setup_s is their median, a sample of many even when few
// trials complete, and not mixed with constructions that contend with
// a running trial.
const setupSamples = 128

var (
	exactAgent = libWorkload{
		alg: popcount.CountExact, n: 1 << 11, tinyN: 64, engine: "agent",
		lanes: 2, prefix: 8,
	}
	approxBatched = libWorkload{
		alg: popcount.Approximate, n: 1 << 16, tinyN: 256, engine: "batch",
		opts:  []popcount.Option{popcount.WithEngine(popcount.EngineCountBatched)},
		lanes: 2, prefix: 2, shards: 2,
	}
)

// trialSeed derives trial i's seed from the workload seed (splitmix64,
// never 0 so no layer substitutes its own default).
func trialSeed(base uint64, i int) uint64 {
	z := base + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// trialRec is one completed trial.
type trialRec struct {
	idx        int
	start, end time.Duration // offsets from the pass origin
	fail       string        // empty when the output verified
	res        popcount.Result
	stats      popcount.EngineStats
	polls      int64 // observer polls (traced trials only)
	snapBytes  int   // snapshot size (traced prefix trials only)
}

func (t trialRec) latency() float64 {
	if t.fail != "" {
		return math.Inf(1)
	}
	return (t.end - t.start).Seconds()
}

// pass is one closed-loop measurement.
type pass struct {
	trials     []trialRec // sorted by index
	laneEnds   []time.Duration
	abandoned  int
	spans      []span
	start, end usage
}

func (w libWorkload) size(cfg runConfig) int {
	if cfg.tiny {
		return w.tinyN
	}
	return w.n
}

// runPass drives the closed loop for dur. Trials still running at the
// deadline are interrupted and discarded (neither attempted nor
// failed), except the fingerprint prefix, which always completes.
func (w libWorkload) runPass(cfg runConfig, dur time.Duration, traced bool) pass {
	var p pass
	p.start = readUsage()
	origin := time.Now()
	var next atomic.Int64
	var stop atomic.Bool
	timer := time.AfterFunc(dur, func() { stop.Store(true) })
	defer timer.Stop()

	type lane struct {
		trials    []trialRec
		end       time.Duration
		abandoned int
		log       *spanLog
	}
	lanes := make([]lane, w.lanes)
	var wg sync.WaitGroup
	for l := range lanes {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			if traced {
				ln.log = newSpanLog(origin)
			}
			for {
				i := int(next.Add(1) - 1)
				if i >= w.prefix && stop.Load() {
					break
				}
				rec, ok := w.trial(cfg, i, &stop, ln.log, origin)
				if !ok {
					ln.abandoned++
					break
				}
				ln.trials = append(ln.trials, rec)
			}
			ln.end = time.Since(origin)
			if len(ln.trials) > 0 {
				ln.end = ln.trials[len(ln.trials)-1].end
			}
		}(&lanes[l])
	}
	wg.Wait()
	p.end = readUsage()

	var logs []*spanLog
	for _, ln := range lanes {
		p.trials = append(p.trials, ln.trials...)
		p.laneEnds = append(p.laneEnds, ln.end)
		p.abandoned += ln.abandoned
		if ln.log != nil {
			logs = append(logs, ln.log)
		}
	}
	sort.Slice(p.trials, func(a, b int) bool { return p.trials[a].idx < p.trials[b].idx })
	p.spans = mergeLogs(logs)
	return p
}

// trial runs trial i. It reports false when the deadline interrupted
// the trial, whose partial work is then discarded along with its spans.
// When traced, the trial is recorded as a "trial" span with children
// "setup" (NewSimulation) and "run" (RunToConvergence); every
// convergence poll re-runs Simulation.Converged from the observer as a
// "poll" span under "run", timing the predicate the engine just ran.
func (w libWorkload) trial(cfg runConfig, i int, stop *atomic.Bool, log *spanLog, origin time.Time) (trialRec, bool) {
	rec := trialRec{idx: i}
	n := w.size(cfg)
	opts := append([]popcount.Option{popcount.WithSeed(trialSeed(cfg.seed, i))}, w.opts...)
	if i >= w.prefix {
		opts = append(opts, popcount.WithInterrupt(stop.Load))
	}
	var s *popcount.Simulation
	top, runSpan, mark := -1, -1, 0
	if log != nil {
		mark = len(log.spans)
		opts = append(opts, popcount.WithObserver(func(popcount.Snapshot) {
			p := log.begin("poll", runSpan, i)
			s.Converged()
			log.end(p)
			rec.polls++
		}))
		top = log.begin("trial", -1, i)
	}
	t0 := time.Now()
	setup := -1
	if log != nil {
		setup = log.begin("setup", top, i)
	}
	var err error
	s, err = popcount.NewSimulation(w.alg, n, opts...)
	if log != nil {
		log.end(setup)
	}
	var res popcount.Result
	if err == nil {
		if log != nil {
			runSpan = log.begin("run", top, i)
		}
		res, err = s.RunToConvergence()
		if log != nil {
			log.end(runSpan)
		}
		if err == nil && res.Interrupted {
			if log != nil {
				log.spans = log.spans[:mark]
			}
			return rec, false
		}
		rec.stats = s.Stats()
	}
	rec.res = res
	rec.fail = verifyResult(w.alg, n, res, err)
	rec.start, rec.end = t0.Sub(origin), time.Since(origin)
	if log != nil {
		log.end(top)
		if i < w.prefix && rec.fail == "" {
			// Checkpoint layer on this workload's engine, timed outside
			// the trial: snapshot the converged simulation and restore it.
			rec.snapBytes, rec.fail = snapshotRoundTrip(log, s, i)
		}
	}
	return rec, true
}

// verifyResult checks one trial's output: convergence within the
// engine's default budget, and the count the paper promises —
// CountExact exactly n, Approximate ⌊log₂ n⌋ or ⌈log₂ n⌉.
func verifyResult(alg popcount.Algorithm, n int, res popcount.Result, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case !res.Converged:
		return fmt.Sprintf("not converged within %d interactions", res.Total)
	}
	switch alg {
	case popcount.CountExact:
		if res.Estimate != int64(n) {
			return fmt.Sprintf("CountExact counted %d, want %d", res.Estimate, n)
		}
	case popcount.Approximate:
		lo := int64(bits.Len(uint(n)) - 1)
		hi := lo
		if n&(n-1) != 0 {
			hi++
		}
		if res.Output < lo || res.Output > hi {
			return fmt.Sprintf("Approximate output %d, want %d..%d", res.Output, lo, hi)
		}
	}
	return ""
}

// snapshotRoundTrip times Snapshot and RestoreSimulation on s as
// "snapshot" and "restore" spans, returns the blob size, and checks the
// restored simulation stands where s stands.
func snapshotRoundTrip(log *spanLog, s *popcount.Simulation, op int) (int, string) {
	sp := log.begin("snapshot", -1, op)
	blob, err := s.Snapshot()
	log.end(sp)
	if err != nil {
		return 0, "snapshot: " + err.Error()
	}
	rp := log.begin("restore", -1, op)
	r, err := popcount.RestoreSimulation(blob)
	log.end(rp)
	if err != nil {
		return len(blob), "restore: " + err.Error()
	}
	if r.Interactions() != s.Interactions() || r.Converged() != s.Converged() {
		return len(blob), fmt.Sprintf("restored simulation at %d interactions, snapshot taken at %d", r.Interactions(), s.Interactions())
	}
	return len(blob), ""
}

// workCounters are the deterministic counters of a set of trials.
type workCounters struct {
	trials                                      int
	interactions, total                         int64
	deltaCalls, epochs, violations              int64
	halfReuses, halfDiscards                    int64
	shardEpochs, shardBlocks, conflicts, steals int64
	digest                                      string
}

func countWork(trials []trialRec) workCounters {
	var c workCounters
	h := sha256.New()
	for _, t := range trials {
		st := t.stats
		c.trials++
		c.interactions += t.res.Interactions
		c.total += t.res.Total
		c.deltaCalls += st.DeltaCalls
		c.epochs += st.Epochs
		c.violations += st.Violations
		c.halfReuses += st.HalfReuses
		c.halfDiscards += st.HalfDiscards
		c.shardEpochs += st.ShardEpochs
		c.shardBlocks += st.ShardBlocks
		c.conflicts += st.MergeConflicts
		c.steals += st.StealEvents
		fmt.Fprintf(h, "%d:%d:%d:%d:%v|", t.idx, t.res.Interactions, t.res.Total, t.res.Output, st)
	}
	c.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return c
}

func (c workCounters) String() string {
	return fmt.Sprintf("trials=%d interactions=%d total=%d delta_calls=%d epochs=%d violations=%d half_reuses=%d half_discards=%d shard_epochs=%d shard_blocks=%d merge_conflicts=%d steals=%d digest=%s",
		c.trials, c.interactions, c.total, c.deltaCalls, c.epochs, c.violations,
		c.halfReuses, c.halfDiscards, c.shardEpochs, c.shardBlocks, c.conflicts, c.steals, c.digest)
}

// prefixOf returns the pass's leading trials, those every run completes.
func (w libWorkload) prefixOf(p pass) []trialRec {
	var out []trialRec
	for _, t := range p.trials {
		if t.idx < w.prefix {
			out = append(out, t)
		}
	}
	return out
}

// throughput is completed trials per second of lane time: each lane is
// timed from the pass start to its last completion, so neither a lane
// idling while another finishes nor discarded work after the deadline
// counts.
func throughput(completed int, laneEnds []time.Duration) float64 {
	var sum time.Duration
	for _, e := range laneEnds {
		sum += e
	}
	return ratio(float64(completed), (sum / time.Duration(len(laneEnds))).Seconds())
}

func (w libWorkload) run(cfg runConfig) (*outcome, error) {
	out := &outcome{gated: map[string]float64{}}
	setups, err := w.timeSetups(cfg)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		p := w.runPass(cfg, cfg.dur, false)
		w.endToEnd(out, p, "", setups)
		peakRSS(out)
		out.fingerprint = append(out.fingerprint,
			"prefix "+countWork(w.prefixOf(p)).String(),
			"run "+countWork(p.trials).String())
		return out, nil
	}

	// Traced run: an untraced pass and a traced pass over the same seed
	// list, each for half the time. Their prefixes must do identical
	// work — observation touches no RNG stream — and their paired trial
	// times give the tracing overhead.
	plain := w.runPass(cfg, cfg.dur/2, false)
	traced := w.runPass(cfg, cfg.dur/2, true)
	w.endToEnd(out, plain, "untraced.", setups)
	w.endToEnd(out, traced, "traced.", setups)
	fpPlain, fpTraced := countWork(w.prefixOf(plain)), countWork(w.prefixOf(traced))
	out.fingerprint = append(out.fingerprint, "prefix "+fpPlain.String(), "traced-prefix "+fpTraced.String())
	if fpPlain != fpTraced {
		out.problems = append(out.problems, "traced pass did different work from the untraced pass")
	}
	logs := []*spanLog{{spans: traced.spans}}

	pr, err := runProbes(cfg)
	if err != nil {
		return nil, err
	}
	l := newLayerValues(pr, traced.spans)
	l.trials(w.prefixOf(traced), traced.trials, w.engine)
	if w.shards >= 2 {
		sh := w.shardReplay(cfg)
		for _, t := range sh.trials {
			if t.fail != "" {
				out.problems = append(out.problems, fmt.Sprintf("sharded replay of trial %d: %s", t.idx, t.fail))
			}
		}
		out.fingerprint = append(out.fingerprint, "sharded-replay "+countWork(sh.trials).String())
		l.sharded(countWork(sh.trials), sh.spans)
		logs = append(logs, &spanLog{spans: sh.spans})
	}
	out.spans = mergeLogs(logs)
	l.set("trace.overhead_ratio", pairedOverhead(trialTimes(plain.trials), trialTimes(traced.trials)))
	l.set("service.checkpoints_per_job", 0)
	l.set("service.cache_hit_ratio", 0)
	l.emit(out)
	return out, nil
}

// timeSetups times setupSamples standalone NewSimulation calls on the
// run's first trial seeds (the simulations are dropped unrun).
func (w libWorkload) timeSetups(cfg runConfig) ([]time.Duration, error) {
	out := make([]time.Duration, setupSamples)
	for i := range out {
		opts := append([]popcount.Option{popcount.WithSeed(trialSeed(cfg.seed, i))}, w.opts...)
		t := time.Now()
		_, err := popcount.NewSimulation(w.alg, w.size(cfg), opts...)
		out[i] = time.Since(t)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// shardReplay reruns trial 0 traced with the sharded planner
// (WithIntraRunParallelism(w.shards)), one trial in flight.
func (w libWorkload) shardReplay(cfg runConfig) pass {
	sw := w
	sw.opts = append(append([]popcount.Option{}, w.opts...), popcount.WithIntraRunParallelism(w.shards))
	sw.lanes, sw.prefix, sw.shards = 1, 1, 0
	return sw.runPass(cfg, 0, true)
}

// peakRSS records the run's peak resident set.
func peakRSS(out *outcome) {
	rss := peakRSSMB()
	out.gated["peak_rss_mb"] = rss
	out.add("peak_rss_mb", rss, "MB")
}

// endToEnd records a pass's attempted/failed counts and its end-to-end
// metrics. The gated names apply to the untraced run only (prefix "").
func (w libWorkload) endToEnd(out *outcome, p pass, prefix string, setups []time.Duration) {
	var lats []float64
	failed := 0
	for _, t := range p.trials {
		lats = append(lats, t.latency())
		if t.fail != "" {
			failed++
			out.fingerprint = append(out.fingerprint, fmt.Sprintf("failure trial=%d %s", t.idx, t.fail))
		}
	}
	out.attempted += len(p.trials)
	out.failed += failed
	tps := throughput(len(p.trials)-failed, p.laneEnds)
	setup := median(seconds(setups))
	if prefix == "" {
		out.gated["setup_s"] = setup
		out.gated["ops_per_s"] = tps
		out.gated["op_s_p50"] = median(lats)
	}
	out.add(prefix+"setup_s", setup, "s")
	out.add(prefix+"trials_per_s", tps, "1/s")
	out.add(prefix+"trial_s_p50", median(lats), "s")
	if len(lats) >= p90Samples {
		out.add(prefix+"trial_s_p90", quantile(lats, 0.9), "s")
	}
	out.add(prefix+"fail_rate", ratio(float64(failed), float64(len(p.trials))), "fraction")
	out.add(prefix+"trials", float64(len(p.trials)), "count")
	out.add(prefix+"abandoned_at_deadline", float64(p.abandoned), "count")
	out.add(prefix+"steal_share", p.end.stealShare(p.start), "fraction")
}

// trialTimes maps each verified trial's index to its time.
func trialTimes(trials []trialRec) map[int]time.Duration {
	out := map[int]time.Duration{}
	for _, t := range trials {
		if t.fail == "" {
			out[t.idx] = t.end - t.start
		}
	}
	return out
}

// pairedOverhead compares the times of the operations both passes
// verified — equal indexes ran equal trajectories: Σ traced / Σ
// untraced − 1.
func pairedOverhead(plain, traced map[int]time.Duration) float64 {
	var a, b time.Duration
	for i, d := range traced {
		if u, ok := plain[i]; ok {
			a += u
			b += d
		}
	}
	return ratio(b.Seconds(), a.Seconds()) - 1
}
