package popcount_test

import (
	"reflect"
	"testing"

	"popcount/internal/baseline"
	"popcount/internal/core"
	"popcount/internal/sim"
)

// TestBatchEquivalentToScalar runs every batch-wired protocol down both
// engine paths — the scalar per-interaction loop and the BatchInteractor
// fast path — under equal seeds, and demands bit-for-bit identical
// results and per-agent output vectors.
func TestBatchEquivalentToScalar(t *testing.T) {
	cases := []struct {
		name    string
		factory func() sim.Protocol
		cfg     sim.Config
	}{
		{"TokenBag", func() sim.Protocol { return sim.NewSpecAgent(baseline.NewTokenBagSpec(128)) },
			sim.Config{Seed: 3}},
		{"TokenBag/confirm", func() sim.Protocol { return sim.NewSpecAgent(baseline.NewTokenBagSpec(96)) },
			sim.Config{Seed: 9, ConfirmWindow: 10_000}},
		{"Approximate", func() sim.Protocol { return sim.NewSpecAgent(core.NewApproximateSpec(core.Config{N: 256}).Spec) },
			sim.Config{Seed: 4}},
		{"CountExact", func() sim.Protocol { return sim.NewSpecAgent(core.NewCountExactSpec(core.Config{N: 256}).Spec) },
			sim.Config{Seed: 5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			scalarP, batchP := c.factory(), c.factory()
			if _, ok := batchP.(sim.BatchInteractor); !ok {
				t.Fatalf("%T does not implement sim.BatchInteractor", batchP)
			}
			scalarCfg := c.cfg
			scalarCfg.DisableBatch = true
			scalarRes, err := sim.Run(scalarP, scalarCfg)
			if err != nil {
				t.Fatal(err)
			}
			batchRes, err := sim.Run(batchP, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if scalarRes != batchRes {
				t.Fatalf("results diverged:\nscalar %+v\nbatch  %+v", scalarRes, batchRes)
			}
			if !reflect.DeepEqual(sim.Outputs(scalarP), sim.Outputs(batchP)) {
				t.Fatal("per-agent outputs diverged between scalar and batch paths")
			}
		})
	}
}

// TestBatchEquivalentUnderNonUniformSchedulers exercises the generic
// (non-devirtualized) branch of the batch loop: under stateful and
// biased schedulers the two paths must still agree bit for bit. Each run
// gets a fresh scheduler instance.
func TestBatchEquivalentUnderNonUniformSchedulers(t *testing.T) {
	scheds := map[string]func() sim.Scheduler{
		"biased":   func() sim.Scheduler { return sim.BiasedScheduler{Hot: 1, Bias: 0.3} },
		"matching": func() sim.Scheduler { return sim.NewMatchingScheduler() },
	}
	for name, mk := range scheds {
		t.Run(name, func(t *testing.T) {
			scalarP := sim.NewSpecAgent(baseline.NewTokenBagSpec(100))
			batchP := sim.NewSpecAgent(baseline.NewTokenBagSpec(100))
			scalarRes, err := sim.Run(scalarP, sim.Config{Seed: 6, Scheduler: mk(), DisableBatch: true})
			if err != nil {
				t.Fatal(err)
			}
			batchRes, err := sim.Run(batchP, sim.Config{Seed: 6, Scheduler: mk()})
			if err != nil {
				t.Fatal(err)
			}
			if scalarRes != batchRes {
				t.Fatalf("results diverged:\nscalar %+v\nbatch  %+v", scalarRes, batchRes)
			}
			if !reflect.DeepEqual(sim.Outputs(scalarP), sim.Outputs(batchP)) {
				t.Fatal("per-agent outputs diverged between scalar and batch paths")
			}
		})
	}
}
