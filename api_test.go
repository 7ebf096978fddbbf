package popcount

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"popcount/internal/rng"
	"popcount/internal/sim"
)

// swapSched is a user-defined scheduler: uniform pairs with the roles
// swapped. It exercises the public Scheduler extension point.
type swapSched struct{}

func (swapSched) Next(n int, r Rand) (int, int) {
	u, v := r.Pair(n)
	return v, u
}

func TestWithSchedulerReproducibility(t *testing.T) {
	factories := map[string]func() Scheduler{
		"uniform":  UniformPairs,
		"biased":   func() Scheduler { return BiasedPairs(0, 0.2) },
		"matching": RandomMatching,
		"custom":   func() Scheduler { return swapSched{} },
	}
	for name, mk := range factories {
		t.Run(name, func(t *testing.T) {
			a, err := Count(TokenBag, 64, WithSeed(8), WithScheduler(mk))
			if err != nil {
				t.Fatal(err)
			}
			b, err := Count(TokenBag, 64, WithSeed(8), WithScheduler(mk))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("equal seeds diverged under %s scheduler:\n%+v\n%+v", name, a, b)
			}
			if !a.Converged || a.Output != 64 {
				t.Fatalf("token bag under %s scheduler: converged=%v output=%d", name, a.Converged, a.Output)
			}
		})
	}
}

// TestPublicSchedulersMatchEngine pins the public scheduler types to the
// internal implementations newSimScheduler maps them to: same seed, same
// draw sequence. A divergence would break the reproducibility contract
// between direct Next calls and engine-driven runs.
func TestPublicSchedulersMatchEngine(t *testing.T) {
	cases := []struct {
		name   string
		public func() Scheduler
		engine func() sim.Scheduler
	}{
		{"uniform",
			UniformPairs,
			func() sim.Scheduler { return sim.UniformScheduler{} }},
		{"biased",
			func() Scheduler { return BiasedPairs(2, 0.3) },
			func() sim.Scheduler { return sim.BiasedScheduler{Hot: 2, Bias: 0.3} }},
		{"matching",
			RandomMatching,
			func() sim.Scheduler { return sim.NewMatchingScheduler() }},
		{"ring",
			GraphRing,
			func() sim.Scheduler { return &sim.GraphScheduler{Kind: sim.GraphKindRing} }},
		{"torus",
			GraphTorus,
			func() sim.Scheduler { return &sim.GraphScheduler{Kind: sim.GraphKindTorus} }},
		{"kron",
			func() Scheduler { return GraphKronecker(sim.DefaultKronInitiator, 6, 0) },
			func() sim.Scheduler { return &sim.GraphScheduler{Kind: sim.GraphKindKron, K: 6} }},
	}
	// Both even and odd populations: the matching scheduler's refill
	// logic differs by parity (odd n leaves one agent out per round),
	// and a drift there shows up only pair-for-pair.
	for _, n := range []int{12, 33} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(t *testing.T) {
				pub, eng := c.public(), c.engine()
				rp, re := rng.New(42), rng.New(42)
				for i := 0; i < 10_000; i++ {
					pu, pv := pub.Next(n, rp)
					eu, ev := eng.Next(n, re)
					if pu != eu || pv != ev {
						t.Fatalf("draw %d: public (%d,%d) vs engine (%d,%d)", i, pu, pv, eu, ev)
					}
				}
			})
		}
	}

	// A population-size change mid-stream must reset stateful
	// schedulers identically on both sides (the matching round and any
	// built graph are n-specific).
	t.Run("n-change", func(t *testing.T) {
		for _, c := range cases {
			pub, eng := c.public(), c.engine()
			rp, re := rng.New(7), rng.New(7)
			for i, n := range []int{12, 12, 12, 33, 33, 8, 9, 12} {
				pu, pv := pub.Next(n, rp)
				eu, ev := eng.Next(n, re)
				if pu != eu || pv != ev {
					t.Fatalf("%s: draw %d (n=%d): public (%d,%d) vs engine (%d,%d)",
						c.name, i, n, pu, pv, eu, ev)
				}
			}
		}
	})
}

func TestBiasedPairsValidation(t *testing.T) {
	for _, c := range []struct {
		hot  int
		bias float64
	}{{0, 1.0}, {0, -0.1}, {-1, 0.2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BiasedPairs(%d, %v) accepted", c.hot, c.bias)
				}
			}()
			BiasedPairs(c.hot, c.bias)
		}()
	}
}

func TestRunEnsembleDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) EnsembleResult {
		t.Helper()
		ens, err := RunEnsemble(context.Background(), TokenBag, 64, 32,
			WithSeed(5), WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		return ens
	}
	serial, parallel := run(1), run(8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("ensemble results differ between parallelism 1 and 8")
	}
	st := serial.Stats
	if st.Trials != 32 || st.Converged != 32 || st.ConvergenceRate != 1 {
		t.Fatalf("unexpected aggregate: %+v", st)
	}
	if st.Interactions.Mean <= 0 || st.Interactions.Median <= 0 ||
		st.Interactions.P10 > st.Interactions.P90 ||
		st.Interactions.Min > st.Interactions.Max {
		t.Fatalf("implausible interaction summary: %+v", st.Interactions)
	}
	// Independent trials: the seeds differ, so convergence times must
	// not all coincide.
	distinct := map[int64]bool{}
	for _, r := range serial.Trials {
		distinct[r.Interactions] = true
		if r.Output != 64 {
			t.Fatalf("trial output %d, want 64", r.Output)
		}
	}
	if len(distinct) < 2 {
		t.Fatal("all 32 trials converged at the identical interaction count — trials are not independent")
	}
}

func TestRunEnsembleSchedulerPerTrial(t *testing.T) {
	// A stateful scheduler must be rebuilt per trial; if an instance were
	// shared, concurrent trials would race and determinism would break.
	run := func(par int) EnsembleResult {
		t.Helper()
		ens, err := RunEnsemble(context.Background(), TokenBag, 64, 8,
			WithSeed(3), WithParallelism(par), WithScheduler(RandomMatching))
		if err != nil {
			t.Fatal(err)
		}
		return ens
	}
	if !reflect.DeepEqual(run(1), run(4)) {
		t.Fatal("matching-scheduler ensemble not reproducible across parallelism")
	}
}

func TestRunEnsembleCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunEnsemble(ctx, Approximate, 512, 4, WithSeed(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunEnsembleValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := RunEnsemble(ctx, TokenBag, 64, 0); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := RunEnsemble(ctx, TokenBag, 1, 4); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := RunEnsemble(ctx, Algorithm(99), 64, 4); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestConfirmWindowReportsStability(t *testing.T) {
	res, err := Count(TokenBag, 64, WithSeed(2), WithConfirmWindow(5000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Stable {
		t.Fatalf("token bag should be stable: %+v", res)
	}
	if res.Total != res.Interactions+5000 {
		t.Fatalf("confirmation window not executed: Interactions=%d Total=%d", res.Interactions, res.Total)
	}
}

func TestResultTotalWithoutWindow(t *testing.T) {
	res, err := Count(TokenBag, 64, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != res.Interactions {
		t.Fatalf("without a window Total (%d) must equal Interactions (%d)", res.Total, res.Interactions)
	}
	if res.Stable != res.Converged {
		t.Fatalf("without a window Stable (%v) must equal Converged (%v)", res.Stable, res.Converged)
	}
}

func TestObserverSnapshots(t *testing.T) {
	var snaps []Snapshot
	res, err := Count(TokenBag, 64, WithSeed(3),
		WithObserver(func(s Snapshot) { snaps = append(snaps, s) }))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("observer never called")
	}
	last := int64(0)
	for _, s := range snaps {
		if s.Interactions <= last {
			t.Fatalf("snapshots not monotone: %d after %d", s.Interactions, last)
		}
		last = s.Interactions
		if s.Trial != 0 {
			t.Fatalf("single run produced trial index %d", s.Trial)
		}
	}
	final := snaps[len(snaps)-1]
	if !final.Converged || final.Interactions != res.Interactions {
		t.Fatalf("final snapshot %+v inconsistent with result %+v", final, res)
	}
}

func TestObserveEveryThrottles(t *testing.T) {
	var snaps []Snapshot
	_, err := Count(TokenBag, 64, WithSeed(3),
		WithObserveEvery(1024),
		WithObserver(func(s Snapshot) { snaps = append(snaps, s) }))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(snaps); i++ {
		if gap := snaps[i].Interactions - snaps[i-1].Interactions; gap < 1024 {
			t.Fatalf("snapshots %d and %d only %d interactions apart, want ≥ 1024", i-1, i, gap)
		}
	}
}

func TestEnsembleObserverTagsTrials(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	_, err := RunEnsemble(context.Background(), TokenBag, 64, 4,
		WithSeed(5), WithParallelism(4),
		WithObserver(func(s Snapshot) {
			mu.Lock()
			seen[s.Trial] = true
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !seen[i] {
			t.Fatalf("trial %d produced no snapshots", i)
		}
	}
}

func TestFaultInjectionEngagesBackup(t *testing.T) {
	s, err := NewSimulation(StableApproximate, 128, WithSeed(7), WithFaults(FaultPlan{CorruptSearch: true}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunToConvergence()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("faulted run did not stabilize")
	}
	if !s.Errored() {
		t.Fatal("fault was not detected")
	}
	if res.Output != 7 { // ⌊log₂ 128⌋, recovered by the backup
		t.Fatalf("recovered output %d, want 7", res.Output)
	}
}

func TestSimulationStepThenRun(t *testing.T) {
	s, err := NewSimulation(TokenBag, 64, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	s.Step(1000)
	res, err := s.RunToConvergence()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Total != s.Interactions() {
		t.Fatalf("manual stepping not honored: %+v vs t=%d", res, s.Interactions())
	}
}
