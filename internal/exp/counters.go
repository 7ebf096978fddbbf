package exp

import (
	"sync/atomic"

	"popcount/internal/sim"
)

// Package-level run counters: every trial the harness executes is
// tallied here, so cmd/popbench can report machine-readable
// per-experiment metrics (trials, convergence rate, interactions,
// interactions/sec) without each experiment carrying its own plumbing.
// Every counter is a deterministic function of the experiment's seeds
// — machine class never changes them — which is what cmd/benchdiff's
// counter gate relies on. The counters are atomic — trials run
// concurrently.
var (
	ctrTrials         atomic.Int64
	ctrConverged      atomic.Int64
	ctrInteractions   atomic.Int64
	ctrDeltaCalls     atomic.Int64
	ctrEpochs         atomic.Int64
	ctrViolations     atomic.Int64
	ctrHalfReuses     atomic.Int64
	ctrHalfDiscards   atomic.Int64
	ctrShardEpochs    atomic.Int64
	ctrShardBlocks    atomic.Int64
	ctrMergeConflicts atomic.Int64
	ctrStealEvents    atomic.Int64
)

// Counters is a snapshot of the run counters.
type Counters struct {
	// Trials is the number of protocol runs executed.
	Trials int64
	// Converged is the number of runs whose protocol converged.
	Converged int64
	// Interactions is the total number of interactions simulated.
	Interactions int64
	// DeltaCalls is the total number of transition-rule invocations on
	// count engines (zero for agent-engine experiments, whose
	// rule-invocation count is Interactions itself).
	DeltaCalls int64
	// Epochs is the total number of applied batch epochs.
	Epochs int64
	// Violations, HalfReuses and HalfDiscards are the batch planner's
	// safety-net counters (sim.EngineStats), summed over runs: drift
	// bound trips, and the second half-epochs reused or discarded after
	// a split.
	Violations   int64
	HalfReuses   int64
	HalfDiscards int64
	// ShardEpochs, ShardBlocks, MergeConflicts and StealEvents are the
	// sharded planner's counters (sim.Config.Shards ≥ 2), summed over
	// runs. Like the counters above they are deterministic in the seeds
	// and the shard count — never in GOMAXPROCS — so the multicore CI
	// gate compares them exactly across differently-pinned hosts.
	ShardEpochs    int64
	ShardBlocks    int64
	MergeConflicts int64
	StealEvents    int64
}

// ResetCounters zeroes the run counters. Call before an experiment to
// scope a CounterSnapshot to it.
func ResetCounters() {
	ctrTrials.Store(0)
	ctrConverged.Store(0)
	ctrInteractions.Store(0)
	ctrDeltaCalls.Store(0)
	ctrEpochs.Store(0)
	ctrViolations.Store(0)
	ctrHalfReuses.Store(0)
	ctrHalfDiscards.Store(0)
	ctrShardEpochs.Store(0)
	ctrShardBlocks.Store(0)
	ctrMergeConflicts.Store(0)
	ctrStealEvents.Store(0)
}

// CounterSnapshot returns the counters accumulated since the last
// ResetCounters.
func CounterSnapshot() Counters {
	return Counters{
		Trials:         ctrTrials.Load(),
		Converged:      ctrConverged.Load(),
		Interactions:   ctrInteractions.Load(),
		DeltaCalls:     ctrDeltaCalls.Load(),
		Epochs:         ctrEpochs.Load(),
		Violations:     ctrViolations.Load(),
		HalfReuses:     ctrHalfReuses.Load(),
		HalfDiscards:   ctrHalfDiscards.Load(),
		ShardEpochs:    ctrShardEpochs.Load(),
		ShardBlocks:    ctrShardBlocks.Load(),
		MergeConflicts: ctrMergeConflicts.Load(),
		StealEvents:    ctrStealEvents.Load(),
	}
}

// countTrials tallies a batch of finished trials.
func countTrials(trials, converged, interactions int64) {
	ctrTrials.Add(trials)
	ctrConverged.Add(converged)
	ctrInteractions.Add(interactions)
}

// countEngineStats tallies one count-engine run's deterministic
// counters.
func countEngineStats(s sim.EngineStats) {
	ctrDeltaCalls.Add(s.DeltaCalls)
	ctrEpochs.Add(s.Epochs)
	ctrViolations.Add(s.Violations)
	ctrHalfReuses.Add(s.HalfReuses)
	ctrHalfDiscards.Add(s.HalfDiscards)
	ctrShardEpochs.Add(s.ShardEpochs)
	ctrShardBlocks.Add(s.ShardBlocks)
	ctrMergeConflicts.Add(s.MergeConflicts)
	ctrStealEvents.Add(s.StealEvents)
}
