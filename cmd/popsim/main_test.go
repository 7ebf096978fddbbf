package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

func TestRunTokenBag(t *testing.T) {
	for _, engine := range []string{"agent", "count", "count-batched"} {
		if err := run([]string{"-alg", "tokenbag", "-n", "64", "-seed", "3", "-engine", engine}); err != nil {
			t.Fatalf("%s engine: run failed: %v", engine, err)
		}
	}
}

func TestRunExactSmall(t *testing.T) {
	if err := run([]string{"-alg", "exact", "-n", "256", "-seed", "5"}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

func TestRunWithProgress(t *testing.T) {
	if err := run([]string{"-alg", "geometric", "-n", "128", "-progress"}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	if err := run([]string{"-alg", "nope", "-n", "64"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRunCountEngine(t *testing.T) {
	if err := run([]string{"-alg", "geometric", "-n", "100000", "-engine", "count"}); err != nil {
		t.Fatalf("count-engine run failed: %v", err)
	}
}

func TestRunCountEngineEnsemble(t *testing.T) {
	if err := run([]string{"-alg", "geometric", "-n", "4096", "-engine", "count", "-trials", "4"}); err != nil {
		t.Fatalf("count-engine ensemble failed: %v", err)
	}
}

func TestRunCountEngineUnsupportedAlgorithm(t *testing.T) {
	// Every algorithm has a count form (see TestRunTokenBag), so the
	// count engine refuses only an algorithm the library does not have.
	if err := run([]string{"-alg", "nope", "-n", "64", "-engine", "count"}); err == nil {
		t.Fatal("count engine accepted an unknown algorithm")
	}
}

func TestRunCoreProtocolCountEngine(t *testing.T) {
	if err := run([]string{"-alg", "exact", "-n", "256", "-engine", "count", "-seed", "5"}); err != nil {
		t.Fatalf("core protocol on the count engine failed: %v", err)
	}
}

func TestRunUnknownEngine(t *testing.T) {
	if err := run([]string{"-alg", "geometric", "-n", "64", "-engine", "nope"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestRunEnsembleFlag(t *testing.T) {
	if err := run([]string{"-alg", "tokenbag", "-n", "64", "-trials", "4", "-par", "2"}); err != nil {
		t.Fatalf("ensemble run failed: %v", err)
	}
}

func TestRunMatchingScheduler(t *testing.T) {
	if err := run([]string{"-alg", "tokenbag", "-n", "64", "-sched", "matching"}); err != nil {
		t.Fatalf("matching-scheduler run failed: %v", err)
	}
}

func TestRunBiasedScheduler(t *testing.T) {
	if err := run([]string{"-alg", "tokenbag", "-n", "64", "-sched", "biased", "-bias", "0.3"}); err != nil {
		t.Fatalf("biased-scheduler run failed: %v", err)
	}
}

func TestRunUnknownScheduler(t *testing.T) {
	if err := run([]string{"-alg", "tokenbag", "-n", "64", "-sched", "nope"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestRunConfirmWindow(t *testing.T) {
	if err := run([]string{"-alg", "tokenbag", "-n", "64", "-confirm", "5000"}); err != nil {
		t.Fatalf("confirm-window run failed: %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunCapWithoutConvergenceErrors(t *testing.T) {
	if err := run([]string{"-alg", "exact", "-n", "256", "-max", "100"}); err == nil {
		t.Fatal("non-convergence should be reported as an error")
	}
}

// TestGoldenTraces pins popsim's full output for one core protocol on
// each engine at a fixed seed: engine resolution, the interaction
// counter, the consensus output and the deterministic engine counters
// are all machine-independent, so any drift here — a changed rule, a
// changed sampler, a broken engine flag — surfaces in tier-1 instead
// of only in fuzz or the scheduled bench gate.
func TestGoldenTraces(t *testing.T) {
	goldens := []struct {
		name string
		args []string
		want string
	}{
		{
			name: "approximate-agent",
			args: []string{"-alg", "approximate", "-n", "256", "-seed", "12", "-engine", "agent"},
			want: `algorithm:    approximate
population:   256 agents
scheduler:    uniform
engine:       agent
converged:    true
interactions: 719104
output:       8
estimate:     256 agents
`,
		},
		{
			name: "approximate-count",
			args: []string{"-alg", "approximate", "-n", "256", "-seed", "12", "-engine", "count"},
			want: `algorithm:    approximate
population:   256 agents
scheduler:    uniform
engine:       count
converged:    true
interactions: 769024
output:       8
estimate:     256 agents
delta calls:  769024
`,
		},
		{
			name: "approximate-count-batched",
			args: []string{"-alg", "approximate", "-n", "256", "-seed", "12", "-engine", "count-batched"},
			want: `algorithm:    approximate
population:   256 agents
scheduler:    uniform
engine:       count-batched
converged:    true
interactions: 772608
output:       8
estimate:     256 agents
delta calls:  772608
epochs:       0 (safety-net violations 0, half-epochs reused 0, re-planned 0)
`,
		},
	}
	for _, g := range goldens {
		t.Run(g.name, func(t *testing.T) {
			got, err := captureStdout(t, func() error { return run(g.args) })
			if err != nil {
				t.Fatalf("run failed: %v", err)
			}
			if got != g.want {
				t.Errorf("output drifted.\n--- got ---\n%s--- want ---\n%s", got, g.want)
			}
		})
	}
}

// TestGoldenJSON pins the -json document: popsim's JSON path shares
// the popcountd service's canonicalization and encoder, so these bytes
// are exactly what GET /v1/jobs/{id}/result serves for the same
// request. The interaction counter is the same machine-independent
// golden value TestGoldenTraces pins for the text path.
func TestGoldenJSON(t *testing.T) {
	got, err := captureStdout(t, func() error {
		return run([]string{"-json", "-alg", "approximate", "-n", "256", "-seed", "12", "-engine", "count"})
	})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	want := `{
  "request": {
    "algorithm": "approximate",
    "n": 256,
    "trials": 1,
    "seed": 12,
    "engine": "count"
  },
  "trials": [
    {
      "converged": true,
      "stable": true,
      "interactions": 769024,
      "total": 769024,
      "output": 8,
      "estimate": 256
    }
  ],
  "stats": {
    "trials": 1,
    "converged": 1,
    "convergence_rate": 1,
    "stable": 1,
    "stable_rate": 1,
    "interactions": {
      "mean": 769024,
      "median": 769024,
      "std": 0,
      "min": 769024,
      "max": 769024,
      "p10": 769024,
      "p90": 769024
    },
    "estimates": {
      "mean": 256,
      "median": 256,
      "std": 0,
      "min": 256,
      "max": 256,
      "p10": 256,
      "p90": 256
    }
  }
}
`
	if got != want {
		t.Errorf("JSON document drifted.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRunJSONEnsemble(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-json", "-alg", "tokenbag", "-n", "64", "-trials", "3", "-par", "2", "-seed", "4"})
	})
	if err != nil {
		t.Fatalf("ensemble -json run failed: %v", err)
	}
	if !bytes.Contains([]byte(out), []byte(`"trials": 3`)) {
		t.Errorf("ensemble stats missing from document:\n%s", out)
	}
}

func TestRunJSONIncompatibleFlags(t *testing.T) {
	if err := run([]string{"-json", "-alg", "tokenbag", "-n", "64", "-sched", "matching"}); err == nil {
		t.Fatal("-json accepted a non-uniform scheduler")
	}
	if err := run([]string{"-json", "-alg", "tokenbag", "-n", "64", "-progress"}); err == nil {
		t.Fatal("-json accepted -progress")
	}
}

// captureStdout redirects os.Stdout around fn and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	runErr := fn()
	w.Close()
	out := <-done
	r.Close()
	return out, runErr
}
