package popcount

import (
	"context"
	"fmt"
	"runtime"

	"popcount/internal/sim"
	"popcount/internal/stats"
)

// SummaryStats are the summary statistics of one per-trial quantity.
type SummaryStats struct {
	Mean   float64
	Median float64
	Std    float64 // sample standard deviation (n−1 denominator)
	Min    float64
	Max    float64
	P10    float64 // 10th percentile
	P90    float64 // 90th percentile
}

// summarize computes SummaryStats of xs (zero value when xs is empty).
func summarize(xs []float64) SummaryStats {
	s, err := stats.Summarize(xs)
	if err != nil {
		return SummaryStats{}
	}
	return SummaryStats{
		Mean:   s.Mean,
		Median: s.Median,
		Std:    s.Std,
		Min:    s.Min,
		Max:    s.Max,
		P10:    stats.Quantile(xs, 0.1),
		P90:    stats.Quantile(xs, 0.9),
	}
}

// EnsembleStats aggregates the per-trial results of an ensemble.
type EnsembleStats struct {
	// Trials is the number of trials run.
	Trials int
	// Converged counts the trials whose protocol reached its desired
	// configuration; ConvergenceRate is the corresponding fraction.
	Converged       int
	ConvergenceRate float64
	// Stable counts the trials that additionally held the configuration
	// through the confirmation window (equal to Converged when no window
	// was requested); StableRate is the corresponding fraction.
	Stable     int
	StableRate float64
	// Interactions summarizes the convergence times T_C (in
	// interactions) of the converged trials.
	Interactions SummaryStats
	// Estimates summarizes the population-size estimates of the
	// converged trials.
	Estimates SummaryStats
}

// EnsembleResult is the outcome of RunEnsemble: every trial's result in
// trial order, plus aggregate statistics.
type EnsembleResult struct {
	Trials []Result
	Stats  EnsembleStats
}

// RunEnsemble runs trials independent simulations of the chosen
// algorithm in parallel and aggregates the results. Trial i derives its
// scheduler seed deterministically from the base seed (WithSeed), so an
// ensemble is bit-for-bit reproducible at any parallelism
// (WithParallelism; default one worker per CPU). Schedulers registered
// with WithScheduler are built fresh per trial, observers receive
// snapshots tagged with the trial index, and ctx cancellation stops all
// trials at their next convergence poll and returns ctx's error. On
// cancellation the returned EnsembleResult still carries every trial's
// partial result — interrupted trials are tagged Result.Interrupted and
// excluded from the convergence statistics — so callers can report the
// progress a killed run had made.
func RunEnsemble(ctx context.Context, alg Algorithm, n, trials int, opts ...Option) (EnsembleResult, error) {
	if trials <= 0 {
		return EnsembleResult{}, fmt.Errorf("popcount: non-positive trial count %d", trials)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	set := newSettings(opts)
	// Validate once up front so the trial factory cannot fail mid-run;
	// engine × scheduler incompatibilities error here.
	kind, err := set.check(alg, n)
	if err != nil {
		return EnsembleResult{}, err
	}
	cfg := set.simConfig(kind)
	cfg.Interrupt = ensembleInterrupt(ctx, set)
	par := set.parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	var results []Result
	if kind == EngineAgent {
		results, err = agentTrials(alg, n, trials, par, cfg, set)
	} else {
		results, err = countTrials(alg, n, trials, par, cfg, set)
	}
	if err != nil {
		return EnsembleResult{}, err
	}
	return aggregateEnsemble(results), ctx.Err()
}

// ensembleInterrupt builds the trial interrupt hook: ctx cancellation
// stops every trial, and a WithInterrupt hook is polled alongside it.
func ensembleInterrupt(ctx context.Context, set settings) func() bool {
	return func() bool {
		if set.interrupt != nil && set.interrupt() {
			return true
		}
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
}

// aggregateEnsemble computes the ensemble statistics over per-trial
// results — the one aggregation rule shared by the agent-engine and
// count-engine trial paths.
func aggregateEnsemble(results []Result) EnsembleResult {
	out := EnsembleResult{Trials: results}
	var times, ests []float64
	for _, r := range results {
		if r.Converged && !r.Interrupted {
			out.Stats.Converged++
			times = append(times, float64(r.Interactions))
			ests = append(ests, float64(r.Estimate))
		}
		if r.Stable && r.Converged {
			out.Stats.Stable++
		}
	}
	trials := len(results)
	out.Stats.Trials = trials
	out.Stats.ConvergenceRate = float64(out.Stats.Converged) / float64(trials)
	out.Stats.StableRate = float64(out.Stats.Stable) / float64(trials)
	out.Stats.Interactions = summarize(times)
	out.Stats.Estimates = summarize(ests)
	return out
}

// agentTrials is the agent-engine trial path of RunEnsemble, backed by
// sim.RunTrials: every trial builds its own spec and agent array.
func agentTrials(alg Algorithm, n, trials, par int, cfg sim.Config, set settings) ([]Result, error) {
	topt := sim.TrialOptions{Parallelism: par}
	if set.mkSched != nil {
		topt.MakeScheduler = set.newSimScheduler
	}
	// Per-trial observer closures, written by the factory and read by
	// the observer hook — both run on the owning trial's goroutine.
	var obsFns []func(sim.Observation)
	if set.observer != nil {
		obsFns = make([]func(sim.Observation), trials)
		topt.Observe = func(trial int, o sim.Observation) { obsFns[trial](o) }
	}
	factory := func(trial int) sim.Protocol {
		p := sim.NewSpecAgent(specFor(alg, n, set))
		if obsFns != nil {
			obsFns[trial] = set.snapshotObserver(alg, trial, func() (int64, bool) { return p.Output(0), true })
		}
		return p
	}
	runs, err := sim.RunTrials(factory, trials, cfg, topt)
	if err != nil {
		return nil, err
	}
	results := make([]Result, trials)
	for i, tr := range runs {
		outs := sim.Outputs(tr.Protocol)
		results[i] = publicResult(alg, tr.Result, outs[0], outs)
	}
	return results, nil
}

// countTrials is the count-engine trial path of RunEnsemble, backed by
// sim.RunCountTrials. Per-trial Outputs are nil (the configuration is
// aggregate) and Output is the plurality state's output.
func countTrials(alg Algorithm, n, trials, par int, cfg sim.Config, set settings) ([]Result, error) {
	topt := sim.CountTrialOptions{Parallelism: par}
	if set.observer != nil {
		// One throttled adapter per trial, created lazily on the trial's
		// own goroutine — each trial only ever touches its own slot, so
		// no lock is needed.
		adapters := make([]func(sim.Observation), trials)
		topt.Observe = func(trial int, e *sim.CountEngine, o sim.Observation) {
			fn := adapters[trial]
			if fn == nil {
				fn = set.snapshotObserver(alg, trial, e.PluralityOutput)
				adapters[trial] = fn
			}
			fn(o)
		}
	}
	factory := func(int) sim.CountProtocol { return sim.NewSpecCount(specFor(alg, n, set)) }
	runs, err := sim.RunCountTrials(factory, trials, cfg, topt)
	if err != nil {
		return nil, err
	}
	results := make([]Result, trials)
	for i, tr := range runs {
		out, _ := tr.Engine.PluralityOutput()
		results[i] = publicResult(alg, tr.Result, out, nil)
	}
	return results, nil
}
