package popcount_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"popcount"
)

// stepSim drives a simulation through a fixed chunk sequence so both
// sides of a comparison execute identical Step call patterns (the
// batched engine's epoch boundaries depend on them).
func stepSim(s *popcount.Simulation, chunks []int64) {
	for _, c := range chunks {
		s.Step(c)
	}
}

// TestSimulationSnapshotRoundTrip pins the service's checkpointing
// contract on all three engine kinds: a run snapshotted mid-flight,
// serialized, restored via RestoreSimulation, and resumed finishes
// bit-for-bit identical to the uninterrupted run.
func TestSimulationSnapshotRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		alg  popcount.Algorithm
		kind popcount.EngineKind
	}{
		{"approximate-agent", popcount.Approximate, popcount.EngineAgent},
		{"approximate-count", popcount.Approximate, popcount.EngineCount},
		{"approximate-batched", popcount.Approximate, popcount.EngineCountBatched},
		{"stable-exact-count", popcount.StableCountExact, popcount.EngineCount},
	}
	pre := []int64{700, 1300, 512}
	post := []int64{911, 2048, 4096, 333}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := []popcount.Option{
				popcount.WithSeed(99),
				popcount.WithEngine(tc.kind),
			}
			ref, err := popcount.NewSimulation(tc.alg, 512, opts...)
			if err != nil {
				t.Fatal(err)
			}
			stepSim(ref, pre)
			blob, err := ref.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			stepSim(ref, post)

			res, err := popcount.RestoreSimulation(blob)
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm() != tc.alg || res.Engine() != tc.kind || res.N() != 512 {
				t.Fatalf("restored identity = (%v, %v, %d), want (%v, %v, 512)",
					res.Algorithm(), res.Engine(), res.N(), tc.alg, tc.kind)
			}
			stepSim(res, post)

			if ref.Interactions() != res.Interactions() {
				t.Fatalf("interactions: want %d, got %d", ref.Interactions(), res.Interactions())
			}
			if ref.Converged() != res.Converged() {
				t.Fatalf("converged: want %v, got %v", ref.Converged(), res.Converged())
			}
			if ref.Stats() != res.Stats() {
				t.Fatalf("stats: want %+v, got %+v", ref.Stats(), res.Stats())
			}
			if ref.Output(0) != res.Output(0) {
				t.Fatalf("output: want %d, got %d", ref.Output(0), res.Output(0))
			}
			if tc.kind == popcount.EngineAgent {
				w, g := ref.Outputs(), res.Outputs()
				for i := range w {
					if w[i] != g[i] {
						t.Fatalf("agent %d output: want %d, got %d", i, w[i], g[i])
					}
				}
			}
		})
	}
}

// TestSimulationSnapshotResumeToConvergence checks the property the
// daemon's crash recovery actually relies on: restoring a mid-flight
// checkpoint and running to convergence produces the same convergence
// time and output as the run that was never interrupted.
func TestSimulationSnapshotResumeToConvergence(t *testing.T) {
	mk := func() *popcount.Simulation {
		s, err := popcount.NewSimulation(popcount.Approximate, 256,
			popcount.WithSeed(5), popcount.WithEngine(popcount.EngineCount))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := mk()
	refRes, err := ref.RunToConvergence()
	if err != nil {
		t.Fatal(err)
	}
	if !refRes.Converged {
		t.Fatal("reference run did not converge")
	}

	mid := mk()
	mid.Step(refRes.Interactions / 2)
	blob, err := mid.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	res, err := popcount.RestoreSimulation(blob)
	if err != nil {
		t.Fatal(err)
	}
	resRes, err := res.RunToConvergence()
	if err != nil {
		t.Fatal(err)
	}
	if resRes.Interactions != refRes.Interactions || resRes.Total != refRes.Total ||
		resRes.Converged != refRes.Converged || resRes.Output != refRes.Output ||
		resRes.Estimate != refRes.Estimate {
		t.Fatalf("resumed result %+v, want %+v", resRes, refRes)
	}
}

// TestSnapshotUnsupported pins the typed failure for WithScheduler
// state that cannot be captured. Every algorithm itself snapshots
// (TestEveryAlgorithmEveryEngine).
func TestSnapshotUnsupported(t *testing.T) {
	s, err := popcount.NewSimulation(popcount.Approximate, 64,
		popcount.WithSeed(1),
		popcount.WithScheduler(func() popcount.Scheduler { return popcount.BiasedPairs(0, 0.5) }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); !errors.Is(err, popcount.ErrNotSnapshottable) {
		t.Fatalf("custom-scheduler snapshot: err = %v, want ErrNotSnapshottable", err)
	}
}

// TestRestoreSimulationErrors pins ErrBadSnapshot on malformed blobs:
// garbage, truncations, version skew, and inner-blob corruption.
func TestRestoreSimulationErrors(t *testing.T) {
	if _, err := popcount.RestoreSimulation([]byte("not a snapshot")); !errors.Is(err, popcount.ErrBadSnapshot) {
		t.Fatalf("garbage: err = %v, want ErrBadSnapshot", err)
	}

	s, err := popcount.NewSimulation(popcount.Approximate, 128,
		popcount.WithSeed(2), popcount.WithEngine(popcount.EngineCount))
	if err != nil {
		t.Fatal(err)
	}
	s.Step(500)
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut < len(blob); cut += 11 {
		if _, err := popcount.RestoreSimulation(blob[:cut]); !errors.Is(err, popcount.ErrBadSnapshot) {
			t.Fatalf("truncation at %d: err = %v, want ErrBadSnapshot", cut, err)
		}
	}

	bad := append([]byte(nil), blob...)
	bad[4] ^= 0xff // version field
	if _, err := popcount.RestoreSimulation(bad); !errors.Is(err, popcount.ErrBadSnapshot) {
		t.Fatalf("version skew: err = %v, want ErrBadSnapshot", err)
	}

	// Versions 2 and 3 no longer restore: a current blob relabelled as
	// either fails and names the version.
	for _, v := range []uint16{2, 3} {
		old := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint16(old[4:], v)
		_, err := popcount.RestoreSimulation(old)
		if !errors.Is(err, popcount.ErrBadSnapshot) || !strings.Contains(err.Error(), fmt.Sprintf("unknown version %d", v)) {
			t.Fatalf("version %d: err = %v, want ErrBadSnapshot naming the unknown version", v, err)
		}
	}
}

// TestRunEnsembleCancellationPartial pins satellite behavior the
// service depends on: cancelling mid-ensemble still returns every
// trial's partial progress, tagged Interrupted, alongside ctx's error.
func TestRunEnsembleCancellationPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	const trials = 4
	res, err := popcount.RunEnsemble(ctx, popcount.Approximate, 1<<14, trials,
		popcount.WithSeed(11),
		popcount.WithMaxInteractions(1<<40),
		popcount.WithParallelism(2),
		popcount.WithObserver(func(popcount.Snapshot) {
			// First progress snapshot of any trial: pull the plug.
			once.Do(cancel)
		}),
	)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Trials) != trials {
		t.Fatalf("got %d partial trials, want %d", len(res.Trials), trials)
	}
	interrupted, withProgress := 0, 0
	for _, tr := range res.Trials {
		if tr.Interrupted {
			interrupted++
			if tr.Total > 0 {
				withProgress++
			}
		}
	}
	if interrupted == 0 {
		t.Fatal("no trial was tagged Interrupted")
	}
	if withProgress == 0 {
		t.Fatal("no interrupted trial recorded partial progress")
	}
	if res.Stats.Trials != trials {
		t.Fatalf("Stats.Trials = %d, want %d", res.Stats.Trials, trials)
	}
}
