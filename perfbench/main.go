// Command perfbench is the repository's benchmark. It runs one named
// workload at a given seed through popcount's public API (and, for
// service-mix, popcountd's HTTP handler), verifies every output, and
// prints its metrics by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 71, "failed": 0, "metrics": {...}}
//
// whose metrics are the end-to-end set, or with --trace 1 the
// per-layer set, listed in BENCHMARK.json. Build and run it from the
// repository root with
//
//	bash perfbench/run.sh --workload exact-agent --seed 1 --seconds 36 --trace 0
//
// See README.md beside this file for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one named measurement.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd and perLayer are the metrics BENCHMARK.json names, in its
// order. Every workload reports each of them, so each is defined for
// every workload (README.md has the definitions).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_s_p50", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"popcount.new_simulation_ms", "ms"},
	{"popcount.run_self_s", "s"},
	{"popcount.polls", "count"},
	{"popcount.poll_us", "us"},
	{"sim.interactions", "count"},
	{"sim.ns_per_interaction", "ns"},
	{"sim.delta_calls", "count"},
	{"sim.batch.delta_ratio", "fraction"},
	{"sim.batch.epochs", "count"},
	{"sim.batch.violation_ratio", "fraction"},
	{"sim.batch.half_reuse_ratio", "fraction"},
	{"sim.shard.epochs", "count"},
	{"sim.shard.blocks", "count"},
	{"sim.shard.conflict_ratio", "fraction"},
	{"sim.shard.steals", "count"},
	{"sim.memo.pairs", "count"},
	{"sim.memo.hit_ns", "ns"},
	{"sim.intern.code_ns", "ns"},
	{"rng.pair_ns", "ns"},
	{"rng.binomial_ns", "ns"},
	{"rng.hypergeometric_ns", "ns"},
	{"countdist.find_ns", "ns"},
	{"countdist.add_ns", "ns"},
	{"popcount.snapshot_ms", "ms"},
	{"popcount.snapshot_kb", "kB"},
	{"popcount.restore_ms", "ms"},
	{"service.checkpoints_per_job", "count"},
	{"service.cache_hit_ratio", "fraction"},
	{"trace.overhead_ratio", "fraction"},
}

type metricDef struct{ name, unit string }

// runConfig is what one invocation asks of a workload.
type runConfig struct {
	seed    uint64
	dur     time.Duration
	trace   bool
	scratch string // private directory for daemon state, removed at exit
	tiny    bool   // smoke scale: tiny populations, same code paths
}

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	// gated holds the values of the BENCHMARK.json metrics (endToEnd,
	// or perLayer when traced) by name.
	gated map[string]float64
	// report lists every metric printed by name, including the ones
	// only some workloads define.
	report []metric
	// fingerprint lines describe the deterministic work done; the
	// prefix line is equal across runs at one seed.
	fingerprint []string
	// problems are verification failures of the run itself (not of
	// single operations), such as a traced pass whose work differs from
	// the untraced one.
	problems []string
	spans    []span
}

func (o *outcome) add(name string, value float64, unit string) {
	o.report = append(o.report, metric{name, value, unit})
}

// workload is one named benchmark scenario.
type workload struct {
	name string
	run  func(cfg runConfig) (*outcome, error)
}

func workloads() []workload {
	return []workload{
		{"exact-agent", exactAgent.run},
		{"approx-batched", approxBatched.run},
		{"service-mix", serviceMix.run},
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: exact-agent, approx-batched or service-mix")
	seed := fs.Uint64("seed", 1, "workload seed; every trial and job seed derives from it")
	secs := fs.Int("seconds", 36, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	dir := fs.String("dir", ".bench_build", "directory for scratch state and trace files")
	root := fs.String("root", ".", "source tree to fingerprint in the run record")
	tiny := fs.Bool("tiny", false, "smoke scale: tiny populations through the same code paths")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	rec := newRunRecord(w.name, *seed, *secs, *trace == 1, *root)
	line, _ := json.Marshal(rec)
	fmt.Fprintf(stdout, "record %s\n", line)

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	cfg := runConfig{seed: *seed, dur: time.Duration(*secs) * time.Second, trace: *trace == 1, scratch: scratch, tiny: *tiny}
	out, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(*dir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, *seed))
		if err := writeSpans(path, rec, out.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(out.spans), path)
	}
	if err := printOutcome(stdout, out, cfg.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

// printOutcome prints the report lines and, last, the result object.
func printOutcome(w io.Writer, out *outcome, traced bool) error {
	for _, l := range out.fingerprint {
		fmt.Fprintf(w, "fingerprint %s\n", l)
	}
	for _, p := range out.problems {
		fmt.Fprintf(w, "problem %s\n", p)
	}
	for _, m := range out.report {
		fmt.Fprintf(w, "metric %s %s %s\n", m.name, formatValue(m.value), m.unit)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := out.gated[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{v, d.unit}
	}
	if extra := unlisted(out.gated, defs); len(extra) > 0 {
		return fmt.Errorf("metrics %v are not in BENCHMARK.json", extra)
	}
	attempted := max(out.attempted, 1)
	res, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0 && len(out.problems) == 0 && out.attempted > 0, attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", res)
	return nil
}

func unlisted(got map[string]float64, defs []metricDef) []string {
	var extra []string
	for k := range got {
		found := false
		for _, d := range defs {
			found = found || d.name == k
		}
		if !found {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	return extra
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.6g", v)
}
