package popcount

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"reflect"
	"testing"
)

// correctOutput reports whether a converged run's output is a correct
// answer of alg for n agents: exactly n for the exact protocols,
// ⌊log₂ n⌋ or ⌈log₂ n⌉ for the approximate ones, and log₂ n within the
// polynomial factor the geometric estimator promises.
func correctOutput(alg Algorithm, n int, out int64) bool {
	lo := int64(bits.Len(uint(n)) - 1)
	hi := lo
	if n&(n-1) != 0 {
		hi++
	}
	switch alg {
	case Approximate, StableApproximate:
		return out == lo || out == hi
	case GeometricEstimate:
		return out >= lo-6 && out <= hi+8
	default:
		return out == int64(n)
	}
}

// TestEveryAlgorithmEveryEngine runs every algorithm on the agent, count
// and batched count engines: each run must converge to a correct answer,
// and a checkpoint taken at an interrupt halfway through, restored with
// RestoreSimulation, must finish with the uninterrupted run's Result.
// The checkpoint is taken at a poll because the batched engine's epochs
// follow how Step is chunked: a snapshot between polls would resume onto
// a different stream.
func TestEveryAlgorithmEveryEngine(t *testing.T) {
	const n = 64
	for _, alg := range Algorithms() {
		for _, kind := range []EngineKind{EngineAgent, EngineCount, EngineCountBatched} {
			t.Run(fmt.Sprintf("%v/%v", alg, kind), func(t *testing.T) {
				t.Parallel()
				opts := []Option{WithEngine(kind), WithSeed(3)}
				want, err := Count(alg, n, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !want.Converged || !correctOutput(alg, n, want.Output) {
					t.Fatalf("converged=%v output=%d: not a correct answer for n=%d", want.Converged, want.Output, n)
				}

				// CheckEvery defaults to n, so the run polls every n
				// interactions: interrupt it at the poll halfway through.
				stopAt := want.Total / n / 2
				var polls int64
				s, err := NewSimulation(alg, n, append(opts, WithInterrupt(func() bool {
					polls++
					return polls > stopAt
				}))...)
				if err != nil {
					t.Fatal(err)
				}
				part, err := s.RunToConvergence()
				if err != nil {
					t.Fatal(err)
				}
				if !part.Interrupted || part.Total != stopAt*n {
					t.Fatalf("interrupted run: %+v, want an interrupt at %d interactions", part, stopAt*n)
				}
				blob, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				r, err := RestoreSimulation(blob)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.RunToConvergence()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("resumed result %+v, uninterrupted %+v", got, want)
				}
			})
		}
	}
}

// TestErrorPrecedence pins which mistake a request hears about first.
// An engine-level mistake outranks a population below 2 in Validate,
// NewSimulation and RunEnsemble alike, and an unknown algorithm is an
// unknown algorithm on every engine.
func TestErrorPrecedence(t *testing.T) {
	for name, opts := range map[string][]Option{
		"shards on the agent engine": {WithIntraRunParallelism(2)},
		"count engine with matching": {WithEngine(EngineCount), WithScheduler(RandomMatching)},
	} {
		if err := Validate(Approximate, 1, opts...); !errors.Is(err, ErrUnsupportedEngine) {
			t.Errorf("%s: Validate err = %v, want ErrUnsupportedEngine", name, err)
		}
		if _, err := NewSimulation(Approximate, 1, opts...); !errors.Is(err, ErrUnsupportedEngine) {
			t.Errorf("%s: NewSimulation err = %v, want ErrUnsupportedEngine", name, err)
		}
		if _, err := RunEnsemble(context.Background(), Approximate, 1, 2, opts...); !errors.Is(err, ErrUnsupportedEngine) {
			t.Errorf("%s: RunEnsemble err = %v, want ErrUnsupportedEngine", name, err)
		}
	}
	for _, kind := range []EngineKind{EngineAgent, EngineCount, EngineCountBatched, EngineAuto} {
		if err := Validate(Algorithm(99), 64, WithEngine(kind)); !errors.Is(err, ErrUnknownAlgorithm) {
			t.Errorf("%v: Validate err = %v, want ErrUnknownAlgorithm", kind, err)
		}
		if _, err := NewSimulation(Algorithm(99), 64, WithEngine(kind)); !errors.Is(err, ErrUnknownAlgorithm) {
			t.Errorf("%v: NewSimulation err = %v, want ErrUnknownAlgorithm", kind, err)
		}
	}
}
