// Command benchdiff compares two popbench -json metric files and fails
// on regressions — the CI perf gate.
//
// Usage:
//
//	popbench -exp E1,E18,E19 -trials 16 -json current.json
//	benchdiff -baseline bench/baseline.json -current current.json
//	benchdiff -baseline bench/baseline.json -current a.json,b.json,c.json
//	benchdiff -baseline bench/baseline.json -current current.json -ids E1,E18 -threshold 0.4
//	benchdiff -baseline bench/baseline.json -current current.json -counters=false
//	benchdiff -baseline bench/baseline.json -current current.json -update
//	benchdiff -baseline single-core.json -current multi-core.json -speedup 2.0
//
// The files hold the []experimentMetrics records popbench emits. For
// every selected experiment id present in the baseline, benchdiff gates
// two independent properties:
//
//   - Machine-independent counters: trials, interactions, delta_calls,
//     epochs, the batch planner's safety-net counters (violations,
//     half_reuses, half_discards) and the sharded planner's counters
//     are deterministic functions of the experiment's seeds — they
//     must match the baseline exactly on any machine, so any
//     difference is real dynamics drift (a changed rule, a changed
//     sampler, a lost fast path), never runner noise. Disable with
//     -counters=false when diffing across intentionally different
//     configurations.
//   - Wall-clock throughput: interactions_per_sec may regress by at
//     most the threshold (default 0.25, i.e. current < 75% of
//     baseline).
//
// Experiments missing from the current metrics fail the gate outright —
// a silently dropped experiment is a regression too. -update rewrites
// the baseline from the current metrics instead of comparing (run it on
// the reference machine when a PR legitimately shifts throughput or
// dynamics, and commit the result).
//
// -speedup flips the throughput gate's direction for the multicore CI
// job: instead of tolerating a bounded drop against a committed
// baseline, it requires current interactions_per_sec to be at least the
// given multiple of the baseline's. There the two files are the same
// sharded workload run twice in one job — GOMAXPROCS pinned to one core
// for the baseline and to all cores for the current — so the counter
// gate tightens to full equality (no zero-skip): the sharded planner's
// counters are functions of seed and shard count alone, and any
// difference across the two pinnings is a determinism bug, not noise.
//
// Scheduler noise on shared runners is one-sided — contention only ever
// slows a measurement down — so -current accepts several
// comma-separated files (popbench runs repeated in one job) and gates
// on each experiment's best run. Combined with a baseline recorded the
// same way and the loose default threshold, the wall-clock gate catches
// algorithmic regressions (a 2× slowdown from a lost fast path), not
// machine variance; the counter gate is exact and carries none of that
// residual machine-class risk.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// metrics mirrors popbench's experimentMetrics JSON records.
type metrics struct {
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

// counterChecks enumerates the machine-independent counters gated for
// exact equality. A zero baseline value skips its check — older
// baselines predate some counters, and agent-only experiments report no
// delta_calls at all.
var counterChecks = []struct {
	name string
	get  func(m metrics) int64
}{
	{"trials", func(m metrics) int64 { return m.Trials }},
	{"interactions", func(m metrics) int64 { return m.Interactions }},
	{"delta_calls", func(m metrics) int64 { return m.DeltaCalls }},
	{"epochs", func(m metrics) int64 { return m.Epochs }},
	{"violations", func(m metrics) int64 { return m.Violations }},
	{"half_reuses", func(m metrics) int64 { return m.HalfReuses }},
	{"half_discards", func(m metrics) int64 { return m.HalfDiscards }},
	{"shard_epochs", func(m metrics) int64 { return m.ShardEpochs }},
	{"shard_blocks", func(m metrics) int64 { return m.ShardBlocks }},
	{"merge_conflicts", func(m metrics) int64 { return m.MergeConflicts }},
	{"steal_events", func(m metrics) int64 { return m.StealEvents }},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func load(path string) (map[string]metrics, []string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var list []metrics
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]metrics, len(list))
	order := make([]string, 0, len(list))
	for _, m := range list {
		if _, dup := out[m.ID]; dup {
			return nil, nil, fmt.Errorf("%s: duplicate experiment id %q", path, m.ID)
		}
		out[m.ID] = m
		order = append(order, m.ID)
	}
	return out, order, nil
}

// loadBest merges several metrics files, keeping each experiment's
// fastest record — the repeated-run noise filter of the gate.
func loadBest(paths []string) (map[string]metrics, []string, error) {
	best := make(map[string]metrics)
	var order []string
	for _, path := range paths {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		m, o, err := load(path)
		if err != nil {
			return nil, nil, err
		}
		for _, id := range o {
			prev, seen := best[id]
			if !seen {
				order = append(order, id)
			}
			if !seen || m[id].InteractionsPerSec > prev.InteractionsPerSec {
				best[id] = m[id]
			}
		}
	}
	if len(best) == 0 {
		return nil, nil, fmt.Errorf("no metrics in %s", strings.Join(paths, ","))
	}
	return best, order, nil
}

func run(args []string, w *os.File) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		basePath  = fs.String("baseline", "bench/baseline.json", "committed baseline metrics (popbench -json format)")
		curPath   = fs.String("current", "", "current metrics to gate; comma-separated popbench -json files gate on each experiment's best run")
		ids       = fs.String("ids", "", "comma-separated experiment ids to gate; empty = every id in the baseline")
		threshold = fs.Float64("threshold", 0.25, "maximum tolerated relative drop in interactions_per_sec")
		counters  = fs.Bool("counters", true, "gate the machine-independent counters (trials, interactions, delta_calls, epochs, safety-net and shard counters) for exact equality")
		minWall   = fs.Float64("min-wall", 0.05, "baseline wall_seconds below which the throughput ratio is skipped (sub-noise-floor experiments carry no wall-clock signal; their counters are still gated exactly)")
		update    = fs.Bool("update", false, "rewrite the baseline from -current (best run per experiment) instead of comparing")
		speedup   = fs.Float64("speedup", 0, "multicore gate: require current interactions_per_sec >= this multiple of the baseline's (e.g. 2.0) and full counter equality with no zero-skip; 0 = regression mode")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *curPath == "" {
		return fmt.Errorf("-current is required")
	}
	if *threshold <= 0 || *threshold >= 1 {
		return fmt.Errorf("-threshold %v out of range (0, 1)", *threshold)
	}
	if *speedup < 0 {
		return fmt.Errorf("-speedup %v must be positive", *speedup)
	}
	if *speedup > 0 && *update {
		return fmt.Errorf("-speedup and -update are mutually exclusive")
	}

	cur, curOrder, err := loadBest(strings.Split(*curPath, ","))
	if err != nil {
		return err
	}

	if *update {
		list := make([]metrics, 0, len(cur))
		for _, id := range curOrder {
			list = append(list, cur[id])
		}
		data, err := json.MarshalIndent(list, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*basePath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "benchdiff: baseline %s updated from %s\n", *basePath, *curPath)
		return nil
	}

	base, order, err := load(*basePath)
	if err != nil {
		return err
	}

	selected := order
	if *ids != "" {
		selected = nil
		for _, id := range strings.Split(*ids, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if _, ok := base[id]; !ok {
				return fmt.Errorf("experiment %q not in baseline %s", id, *basePath)
			}
			selected = append(selected, id)
		}
	}

	var failures []string
	fmt.Fprintf(w, "%-5s  %14s  %14s  %8s  %s\n", "id", "baseline ips", "current ips", "ratio", "verdict")
	for _, id := range selected {
		b := base[id]
		c, ok := cur[id]
		if !ok {
			fmt.Fprintf(w, "%-5s  %14.3g  %14s  %8s  MISSING\n", id, b.InteractionsPerSec, "-", "-")
			failures = append(failures, fmt.Sprintf("%s: missing from current metrics", id))
			continue
		}
		if b.InteractionsPerSec <= 0 {
			fmt.Fprintf(w, "%-5s  %14.3g  %14.3g  %8s  SKIP (no baseline rate)\n",
				id, b.InteractionsPerSec, c.InteractionsPerSec, "-")
			continue
		}
		ratio := c.InteractionsPerSec / b.InteractionsPerSec
		verdict := "ok"
		switch {
		case b.WallSeconds < *minWall:
			// A run this short is all measurement noise — a millisecond
			// of scheduler jitter moves the ratio by tens of percent.
			// The counter gate below still applies in full.
			verdict = "ok (wall below noise floor, ratio not gated)"
		case *speedup > 0:
			if ratio < *speedup {
				verdict = fmt.Sprintf("NO SPEEDUP (ratio %.2f < %.2f)", ratio, *speedup)
				failures = append(failures, fmt.Sprintf("%s: interactions/sec %.3g -> %.3g (speedup %.2f, want >= %.2f)",
					id, b.InteractionsPerSec, c.InteractionsPerSec, ratio, *speedup))
			}
		case ratio < 1-*threshold:
			verdict = fmt.Sprintf("REGRESSION (>%.0f%% drop)", 100**threshold)
			failures = append(failures, fmt.Sprintf("%s: interactions/sec %.3g -> %.3g (ratio %.2f)",
				id, b.InteractionsPerSec, c.InteractionsPerSec, ratio))
		}
		if *counters {
			for _, ck := range counterChecks {
				// In speedup mode the two files are the same workload under
				// different GOMAXPROCS pinnings, so every counter — zeros
				// included — must agree; regression mode keeps the zero-skip
				// for baselines that predate a counter.
				want, got := ck.get(b), ck.get(c)
				if got != want && (want != 0 || *speedup > 0) {
					verdict = "COUNTER DRIFT"
					failures = append(failures, fmt.Sprintf("%s: %s %d -> %d (machine-independent counter must match exactly)",
						id, ck.name, want, got))
				}
			}
		}
		fmt.Fprintf(w, "%-5s  %14.3g  %14.3g  %8.2f  %s\n",
			id, b.InteractionsPerSec, c.InteractionsPerSec, ratio, verdict)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d experiment(s) regressed:\n  %s",
			len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}
