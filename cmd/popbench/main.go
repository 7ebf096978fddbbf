// Command popbench runs the reproduction experiment suite (E1–E24 and
// ablations A1–A3 from DESIGN.md) and prints the result tables that
// EXPERIMENTS.md records.
//
// Usage:
//
//	popbench                 # quick suite
//	popbench -full           # full sweeps (takes a while)
//	popbench -exp E8,E12     # selected experiments only
//	popbench -trials 20 -par 8
//	popbench -exp E18 -full  # count-engine scaling up to n = 1e8
//	popbench -exp E19 -full  # batched stepping up to n = 1e9
//	popbench -json bench.json            # machine-readable metrics
//	popbench -cpuprofile cpu.pprof       # pprof evidence for perf PRs
//	popbench -exp E22 -shards 8 -json shard.json  # multicore CI gate workload
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"popcount/internal/exp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "popbench:", err)
		os.Exit(1)
	}
}

// experiments is the single registry of the suite, in canonical run
// order — selection, default order and the -json path all derive from
// it, so an experiment cannot be registered in one place and dropped
// from another.
var experiments = []struct {
	id string
	fn func(exp.Options) exp.Table
}{
	{"E1", exp.E1Broadcast}, {"E2", exp.E2Junta}, {"E3", exp.E3PhaseClock},
	{"E4", exp.E4LeaderElect}, {"E5", exp.E5FastLeader}, {"E6", exp.E6PowerOfTwo},
	{"E7", exp.E7Search}, {"E8", exp.E8Approximate}, {"E9", exp.E9StableApproximate},
	{"E10", exp.E10ApproxStage}, {"E11", exp.E11Refine}, {"E12", exp.E12CountExact},
	{"E13", exp.E13BackupApprox}, {"E14", exp.E14BackupExact}, {"E15", exp.E15Baselines},
	{"E16", exp.E16SchedulerRobustness}, {"E17", exp.E17Stabilization},
	{"E18", exp.E18CountEngine}, {"E19", exp.E19BatchedEngine},
	{"E20", exp.E20Service}, {"E21", exp.E21FaultRecovery},
	{"E22", exp.E22ShardScaling}, {"E23", exp.E23InternedThroughput},
	{"E24", exp.E24GraphSchedulers},
	{"A1", exp.A1ClockPeriod}, {"A2", exp.A2Shift}, {"A3", exp.A3FastLeaderRounds},
}

// experimentIDs returns every registered id in canonical order — the
// valid-id list unknown-id errors print, so a typo fails loudly with
// the fix in hand instead of after a multi-run CI job.
func experimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// runnerFor resolves an experiment id from the registry.
func runnerFor(id string) (func(exp.Options) exp.Table, bool) {
	for _, e := range experiments {
		if e.id == id {
			return e.fn, true
		}
	}
	return nil, false
}

// experimentMetrics is the machine-readable per-experiment record
// emitted by -json. Every counter is a deterministic function of the
// experiment's seeds — cmd/benchdiff gates on them exactly, independent
// of the runner's machine class; only WallSeconds and
// InteractionsPerSec vary with the machine.
type experimentMetrics struct {
	ID                 string  `json:"id"`
	Title              string  `json:"title"`
	WallSeconds        float64 `json:"wall_seconds"`
	Trials             int64   `json:"trials"`
	Converged          int64   `json:"converged"`
	ConvergenceRate    float64 `json:"convergence_rate"`
	Interactions       int64   `json:"interactions"`
	InteractionsPerSec float64 `json:"interactions_per_sec"`
	DeltaCalls         int64   `json:"delta_calls,omitempty"`
	Epochs             int64   `json:"epochs,omitempty"`
	Violations         int64   `json:"violations,omitempty"`
	HalfReuses         int64   `json:"half_reuses,omitempty"`
	HalfDiscards       int64   `json:"half_discards,omitempty"`
	ShardEpochs        int64   `json:"shard_epochs,omitempty"`
	ShardBlocks        int64   `json:"shard_blocks,omitempty"`
	MergeConflicts     int64   `json:"merge_conflicts,omitempty"`
	StealEvents        int64   `json:"steal_events,omitempty"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("popbench", flag.ContinueOnError)
	var (
		full       = fs.Bool("full", false, "run the full sweeps instead of the quick suite")
		sel        = fs.String("exp", "", "comma-separated experiment ids (e.g. E1,E8,A2); empty = all")
		trials     = fs.Int("trials", 0, "trials per configuration (0 = default)")
		par        = fs.Int("par", 8, "parallel trials")
		seed       = fs.Uint64("seed", 0, "base seed (0 = default)")
		shards     = fs.Int("shards", 0, "pin the intra-run shard count of shard-aware experiments (E22) instead of their default sweep")
		figs       = fs.String("fig", "", "comma-separated figure ids (F1..F4) to emit as CSV instead of tables")
		jsonPath   = fs.String("json", "", "write per-experiment metrics (trials, interactions, interactions/sec, convergence rate) to this JSON file")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	o := exp.Options{
		Quick:       !*full,
		Trials:      *trials,
		Parallelism: *par,
		Seed:        *seed,
		Shards:      *shards,
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "popbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "popbench: memprofile:", err)
			}
		}()
	}

	if *figs != "" {
		if *jsonPath != "" {
			return fmt.Errorf("-fig emits CSV only and cannot be combined with -json")
		}
		series := map[string]func(exp.Options) exp.Series{
			"F1": exp.F1EpidemicCurve, "F2": exp.F2LeaderDecay,
			"F3": exp.F3EstimateTrajectory, "F4": exp.F4ExactSettling,
		}
		for _, id := range strings.Split(*figs, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			f, ok := series[id]
			if !ok {
				return fmt.Errorf("unknown figure %q", id)
			}
			fmt.Print(f(o).CSV())
		}
		return nil
	}

	var ids []string
	if *sel != "" {
		for _, id := range strings.Split(*sel, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if _, ok := runnerFor(id); !ok {
				return fmt.Errorf("unknown experiment %q (valid: %s)",
					id, strings.Join(experimentIDs(), ", "))
			}
			ids = append(ids, id)
		}
	} else {
		for _, e := range experiments {
			ids = append(ids, e.id)
		}
	}

	// Without -json, the default full-suite path delegates to exp.All so
	// E10–E12 share one set of CountExact runs; per-experiment metrics
	// need per-experiment counter windows, so -json runs them
	// individually.
	if *jsonPath == "" && *sel == "" {
		for _, t := range exp.All(o) {
			fmt.Println(t.Format())
		}
		return nil
	}

	var metrics []experimentMetrics
	for _, id := range ids {
		f, _ := runnerFor(id)
		exp.ResetCounters()
		start := time.Now()
		tbl := f(o)
		wall := time.Since(start).Seconds()
		fmt.Println(tbl.Format())
		c := exp.CounterSnapshot()
		m := experimentMetrics{
			ID:             id,
			Title:          tbl.Title,
			WallSeconds:    wall,
			Trials:         c.Trials,
			Converged:      c.Converged,
			Interactions:   c.Interactions,
			DeltaCalls:     c.DeltaCalls,
			Epochs:         c.Epochs,
			Violations:     c.Violations,
			HalfReuses:     c.HalfReuses,
			HalfDiscards:   c.HalfDiscards,
			ShardEpochs:    c.ShardEpochs,
			ShardBlocks:    c.ShardBlocks,
			MergeConflicts: c.MergeConflicts,
			StealEvents:    c.StealEvents,
		}
		if c.Trials > 0 {
			m.ConvergenceRate = float64(c.Converged) / float64(c.Trials)
		}
		if wall > 0 {
			m.InteractionsPerSec = float64(c.Interactions) / wall
		}
		metrics = append(metrics, m)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(metrics, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}
