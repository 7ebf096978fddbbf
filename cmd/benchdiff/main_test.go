package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeMetrics writes a popbench-format metrics file and returns its
// path.
func writeMetrics(t *testing.T, dir, name string, ms []metrics) string {
	t.Helper()
	data, err := json.Marshal(ms)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func m(id string, ips float64) metrics {
	// WallSeconds sits above the default -min-wall noise floor so the
	// throughput ratio is gated; TestGateMinWallFloor covers the
	// sub-floor skip.
	return metrics{ID: id, Title: id, InteractionsPerSec: ips, WallSeconds: 1, Trials: 2, Converged: 2}
}

// TestGatePasses pins the accept path: rates within the threshold —
// including improvements — pass.
func TestGatePasses(t *testing.T) {
	dir := t.TempDir()
	base := writeMetrics(t, dir, "base.json", []metrics{m("E1", 100), m("E18", 1e9), m("E19", 1e11)})
	cur := writeMetrics(t, dir, "cur.json", []metrics{m("E1", 90), m("E18", 2e9), m("E19", 0.8e11)})
	if err := run([]string{"-baseline", base, "-current", cur}, os.Stdout); err != nil {
		t.Fatalf("gate failed on tolerable drift: %v", err)
	}
}

// TestGateFailsOnSyntheticRegression pins the reject path: a synthetic
// >25% interactions/sec regression must fail the gate.
func TestGateFailsOnSyntheticRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeMetrics(t, dir, "base.json", []metrics{m("E1", 100), m("E18", 1e9), m("E19", 1e11)})
	cur := writeMetrics(t, dir, "cur.json", []metrics{m("E1", 100), m("E18", 0.74e9), m("E19", 1e11)})
	err := run([]string{"-baseline", base, "-current", cur}, os.Stdout)
	if err == nil {
		t.Fatal("gate passed a 26% regression")
	}
	if !strings.Contains(err.Error(), "E18") {
		t.Fatalf("failure does not name the regressed experiment: %v", err)
	}
	// A drop exactly at the boundary (25%) still passes.
	cur = writeMetrics(t, dir, "cur2.json", []metrics{m("E1", 100), m("E18", 0.76e9), m("E19", 1e11)})
	if err := run([]string{"-baseline", base, "-current", cur}, os.Stdout); err != nil {
		t.Fatalf("gate failed a 24%% drop inside the threshold: %v", err)
	}
}

// TestGateFailsOnMissingExperiment pins that silently dropping a gated
// experiment fails.
func TestGateFailsOnMissingExperiment(t *testing.T) {
	dir := t.TempDir()
	base := writeMetrics(t, dir, "base.json", []metrics{m("E1", 100), m("E19", 1e11)})
	cur := writeMetrics(t, dir, "cur.json", []metrics{m("E1", 100)})
	if err := run([]string{"-baseline", base, "-current", cur}, os.Stdout); err == nil {
		t.Fatal("gate passed with E19 missing from current metrics")
	}
}

// TestGateIDSelection pins -ids: only the named experiments gate.
func TestGateIDSelection(t *testing.T) {
	dir := t.TempDir()
	base := writeMetrics(t, dir, "base.json", []metrics{m("E1", 100), m("E18", 1e9)})
	cur := writeMetrics(t, dir, "cur.json", []metrics{m("E1", 100), m("E18", 1)})
	if err := run([]string{"-baseline", base, "-current", cur, "-ids", "E1"}, os.Stdout); err != nil {
		t.Fatalf("gate inspected an unselected experiment: %v", err)
	}
	if err := run([]string{"-baseline", base, "-current", cur, "-ids", "E1,E18"}, os.Stdout); err == nil {
		t.Fatal("gate missed a selected regression")
	}
	if err := run([]string{"-baseline", base, "-current", cur, "-ids", "E7"}, os.Stdout); err == nil {
		t.Fatal("gate accepted an id absent from the baseline")
	}
}

// TestGateBestOfRuns pins the repeated-run noise filter: several
// -current files gate on each experiment's best run, so one
// contention-slowed run does not fail the gate.
func TestGateBestOfRuns(t *testing.T) {
	dir := t.TempDir()
	base := writeMetrics(t, dir, "base.json", []metrics{m("E1", 100), m("E18", 1e9)})
	slow := writeMetrics(t, dir, "slow.json", []metrics{m("E1", 40), m("E18", 1e9)})
	good := writeMetrics(t, dir, "good.json", []metrics{m("E1", 98), m("E18", 0.9e9)})
	if err := run([]string{"-baseline", base, "-current", slow + "," + good}, os.Stdout); err != nil {
		t.Fatalf("best-of gate failed despite one clean run: %v", err)
	}
	// Both runs slow: a real regression still fails.
	slow2 := writeMetrics(t, dir, "slow2.json", []metrics{m("E1", 45), m("E18", 1e9)})
	if err := run([]string{"-baseline", base, "-current", slow + "," + slow2}, os.Stdout); err == nil {
		t.Fatal("best-of gate passed a regression present in every run")
	}
}

// TestGateThresholdFlag pins the-threshold knob.
func TestGateThresholdFlag(t *testing.T) {
	dir := t.TempDir()
	base := writeMetrics(t, dir, "base.json", []metrics{m("E1", 100)})
	cur := writeMetrics(t, dir, "cur.json", []metrics{m("E1", 60)})
	if err := run([]string{"-baseline", base, "-current", cur, "-threshold", "0.5"}, os.Stdout); err != nil {
		t.Fatalf("40%% drop failed a 50%% threshold: %v", err)
	}
	if err := run([]string{"-baseline", base, "-current", cur, "-threshold", "0.2"}, os.Stdout); err == nil {
		t.Fatal("40% drop passed a 20% threshold")
	}
}

// TestGateCountersExact pins the machine-independent counter gate:
// interactions, delta_calls, epochs and trials are deterministic per
// seed, so any mismatch with the baseline fails regardless of how fast
// the runner is — and -counters=false restores the wall-clock-only
// behaviour.
func TestGateCountersExact(t *testing.T) {
	dir := t.TempDir()
	withCounters := func(mm metrics, interactions, deltaCalls, epochs int64) metrics {
		mm.Interactions = interactions
		mm.DeltaCalls = deltaCalls
		mm.Epochs = epochs
		return mm
	}
	base := writeMetrics(t, dir, "base.json", []metrics{
		withCounters(m("E18", 1e9), 500000, 120000, 0),
		withCounters(m("E19", 1e11), 900000, 3000, 750),
	})

	// Identical counters at much slower wall-clock within threshold: ok.
	cur := writeMetrics(t, dir, "cur.json", []metrics{
		withCounters(m("E18", 0.8e9), 500000, 120000, 0),
		withCounters(m("E19", 0.9e11), 900000, 3000, 750),
	})
	if err := run([]string{"-baseline", base, "-current", cur}, os.Stdout); err != nil {
		t.Fatalf("gate failed on matching counters: %v", err)
	}

	// Drifted delta_calls at identical wall-clock: counter gate fails
	// and names the counter.
	drift := writeMetrics(t, dir, "drift.json", []metrics{
		withCounters(m("E18", 1e9), 500000, 119999, 0),
		withCounters(m("E19", 1e11), 900000, 3000, 750),
	})
	err := run([]string{"-baseline", base, "-current", drift}, os.Stdout)
	if err == nil {
		t.Fatal("gate passed drifted delta_calls")
	}
	if !strings.Contains(err.Error(), "delta_calls") {
		t.Fatalf("failure does not name the drifted counter: %v", err)
	}
	// -counters=false falls back to the wall-clock gate alone.
	if err := run([]string{"-baseline", base, "-current", drift, "-counters=false"}, os.Stdout); err != nil {
		t.Fatalf("-counters=false still failed: %v", err)
	}

	// Drifted epochs likewise fail.
	edrift := writeMetrics(t, dir, "edrift.json", []metrics{
		withCounters(m("E18", 1e9), 500000, 120000, 0),
		withCounters(m("E19", 1e11), 900000, 3000, 751),
	})
	if err := run([]string{"-baseline", base, "-current", edrift}, os.Stdout); err == nil {
		t.Fatal("gate passed drifted epochs")
	}

	// A zero baseline counter (older baseline, agent-only experiment)
	// skips that check.
	zbase := writeMetrics(t, dir, "zbase.json", []metrics{m("E1", 100)})
	zcur := writeMetrics(t, dir, "zcur.json", []metrics{
		withCounters(m("E1", 100), 123456, 99, 7),
	})
	if err := run([]string{"-baseline", zbase, "-current", zcur}, os.Stdout); err != nil {
		t.Fatalf("zero-baseline counters were gated: %v", err)
	}
}

// TestGateSafetyNetCounters pins the batch planner's safety-net
// counters: violations, half_reuses and half_discards are gated exactly
// like the other machine-independent counters.
func TestGateSafetyNetCounters(t *testing.T) {
	dir := t.TempDir()
	safety := func(violations, reuses, discards int64) metrics {
		mm := m("E8", 1e8)
		mm.Epochs = 800
		mm.Violations, mm.HalfReuses, mm.HalfDiscards = violations, reuses, discards
		return mm
	}
	base := writeMetrics(t, dir, "base.json", []metrics{safety(40, 3, 25)})
	same := writeMetrics(t, dir, "same.json", []metrics{safety(40, 3, 25)})
	if err := run([]string{"-baseline", base, "-current", same}, os.Stdout); err != nil {
		t.Fatalf("gate failed on matching safety-net counters: %v", err)
	}
	for name, cur := range map[string]metrics{
		"violations":    safety(41, 3, 25),
		"half_reuses":   safety(40, 2, 25),
		"half_discards": safety(40, 3, 26),
	} {
		path := writeMetrics(t, dir, name+".json", []metrics{cur})
		err := run([]string{"-baseline", base, "-current", path}, os.Stdout)
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Fatalf("drifted %s: got %v, want a failure naming it", name, err)
		}
	}
}

// TestGateMinWallFloor pins the noise floor: an experiment whose
// baseline run is shorter than -min-wall carries no wall-clock signal,
// so its throughput ratio is not gated — but its machine-independent
// counters still are.
func TestGateMinWallFloor(t *testing.T) {
	dir := t.TempDir()
	short := m("E13", 100)
	short.WallSeconds = 0.008
	short.Interactions = 300000
	base := writeMetrics(t, dir, "base.json", []metrics{short})

	// A 60% apparent drop on a sub-floor experiment passes.
	slow := short
	slow.InteractionsPerSec = 40
	cur := writeMetrics(t, dir, "cur.json", []metrics{slow})
	if err := run([]string{"-baseline", base, "-current", cur}, os.Stdout); err != nil {
		t.Fatalf("sub-noise-floor ratio was gated: %v", err)
	}

	// Counter drift on the same experiment still fails.
	drift := slow
	drift.Interactions = 300001
	cur = writeMetrics(t, dir, "drift.json", []metrics{drift})
	if err := run([]string{"-baseline", base, "-current", cur}, os.Stdout); err == nil {
		t.Fatal("counter drift passed under the noise floor")
	}

	// Raising -min-wall pulls longer experiments under the floor too.
	long := m("E18", 100)
	base = writeMetrics(t, dir, "base2.json", []metrics{long})
	slow2 := long
	slow2.InteractionsPerSec = 40
	cur = writeMetrics(t, dir, "cur2.json", []metrics{slow2})
	if err := run([]string{"-baseline", base, "-current", cur}, os.Stdout); err == nil {
		t.Fatal("a gated regression passed above the floor")
	}
	if err := run([]string{"-baseline", base, "-current", cur, "-min-wall", "2"}, os.Stdout); err != nil {
		t.Fatalf("-min-wall=2 still gated a 1s experiment: %v", err)
	}
}

// TestGateSpeedup pins -speedup, the multicore gate: the current file
// must be at least the given multiple faster than the baseline, and the
// machine-independent counters — shard counters and zeros included —
// must match exactly across the two pinnings.
func TestGateSpeedup(t *testing.T) {
	dir := t.TempDir()
	sharded := func(ips float64, conflicts, steals int64) metrics {
		mm := m("E22", ips)
		mm.Interactions = 5_000_000
		mm.Epochs = 900
		mm.ShardEpochs = 880
		mm.ShardBlocks = 7040
		mm.MergeConflicts = conflicts
		mm.StealEvents = steals
		return mm
	}
	base := writeMetrics(t, dir, "single.json", []metrics{sharded(100, 3, 0)})

	// 2.5× faster with identical counters passes a 2.0 gate.
	fast := writeMetrics(t, dir, "multi.json", []metrics{sharded(250, 3, 0)})
	if err := run([]string{"-baseline", base, "-current", fast, "-speedup", "2.0"}, os.Stdout); err != nil {
		t.Fatalf("2.5× speedup failed a 2.0 gate: %v", err)
	}

	// 1.5× is not enough and the failure names the shortfall.
	slow := writeMetrics(t, dir, "slow.json", []metrics{sharded(150, 3, 0)})
	err := run([]string{"-baseline", base, "-current", slow, "-speedup", "2.0"}, os.Stdout)
	if err == nil {
		t.Fatal("1.5× speedup passed a 2.0 gate")
	}
	if !strings.Contains(err.Error(), "speedup") {
		t.Fatalf("failure does not name the speedup shortfall: %v", err)
	}

	// Counter drift across the pinnings is a determinism bug even at
	// ample speedup — including a counter whose baseline value is zero,
	// which regression mode would skip.
	drift := writeMetrics(t, dir, "drift.json", []metrics{sharded(300, 3, 4)})
	err = run([]string{"-baseline", base, "-current", drift, "-speedup", "2.0"}, os.Stdout)
	if err == nil {
		t.Fatal("steal_events drift passed the speedup gate")
	}
	if !strings.Contains(err.Error(), "steal_events") {
		t.Fatalf("failure does not name the drifted counter: %v", err)
	}
	if err := run([]string{"-baseline", base, "-current", drift}, os.Stdout); err != nil {
		t.Fatalf("regression mode gated a zero-baseline counter: %v", err)
	}

	// Flag validation.
	if err := run([]string{"-baseline", base, "-current", fast, "-speedup", "-1"}, os.Stdout); err == nil {
		t.Fatal("negative -speedup accepted")
	}
	if err := run([]string{"-baseline", base, "-current", fast, "-speedup", "2", "-update"}, os.Stdout); err == nil {
		t.Fatal("-speedup with -update accepted")
	}
}

// TestUpdateRewritesBaseline pins -update.
func TestUpdateRewritesBaseline(t *testing.T) {
	dir := t.TempDir()
	base := writeMetrics(t, dir, "base.json", []metrics{m("E1", 100)})
	cur := writeMetrics(t, dir, "cur.json", []metrics{m("E1", 500), m("E18", 1e9)})
	if err := run([]string{"-baseline", base, "-current", cur, "-update"}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	got, _, err := load(base)
	if err != nil {
		t.Fatal(err)
	}
	if got["E1"].InteractionsPerSec != 500 || len(got) != 2 {
		t.Fatalf("baseline not rewritten: %+v", got)
	}
}
