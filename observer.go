package popcount

import "popcount/internal/sim"

// Snapshot is a periodic observation of a running simulation, delivered
// to the Observer registered with WithObserver at every convergence poll
// (throttled by WithObserveEvery).
type Snapshot struct {
	// Trial is the trial index within an ensemble (0 for single runs).
	Trial int
	// Interactions is the number of interactions executed so far.
	Interactions int64
	// Converged reports whether the protocol's desired configuration
	// held at this poll.
	Converged bool
	// Output is agent 0's current output (on the count engine: the most
	// populated state's output).
	Output int64
	// Estimate is the population-size estimate implied by Output.
	Estimate int64
	// Errored reports whether the protocol's error flag was raised at
	// this poll. It is probed only when a fault plan is active
	// (WithFaults) and only the stable hybrids detect; false otherwise.
	Errored bool
}

// Observer receives periodic snapshots of a running simulation. It is
// called synchronously from the simulation's goroutine: within one trial
// snapshots arrive in order, but an ensemble delivers snapshots of
// different trials concurrently — observers used with RunEnsemble must be
// safe for concurrent use.
type Observer func(Snapshot)

// WithObserver registers an observer. Progress reporting, live plots,
// and convergence tracing all hang off this one hook — the engine polls,
// the observer consumes; no caller needs its own stepping loop.
func WithObserver(obs Observer) Option {
	return func(s *settings) { s.observer = obs }
}

// WithObserveEvery throttles the observer to at most one snapshot per
// interval interactions (default: every convergence poll, i.e. every
// CheckEvery interactions). The engine still polls convergence at
// CheckEvery granularity; snapshots fire at the first poll at or past
// each interval boundary.
func WithObserveEvery(interval int64) Option {
	return func(s *settings) { s.observeEvery = interval }
}

// snapshotObserver adapts the public observer to an engine's hook for
// one trial. output reads the trial's current output: agent 0's on the
// agent engine, the most populated state's on the count engines (the
// consensus output once converged).
func (set settings) snapshotObserver(alg Algorithm, trial int, output func() (int64, bool)) func(sim.Observation) {
	interval := set.observeEvery
	obs := set.observer
	var last int64
	return func(o sim.Observation) {
		if interval > 0 && o.Interactions-last < interval {
			return
		}
		last = o.Interactions
		snap := Snapshot{
			Trial:        trial,
			Interactions: o.Interactions,
			Converged:    o.Converged,
			Errored:      o.Errored,
		}
		if out, ok := output(); ok {
			snap.Output = out
			snap.Estimate = estimateFor(alg, out)
		}
		obs(snap)
	}
}
