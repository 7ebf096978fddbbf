package baseline

import (
	"fmt"
	"testing"

	"popcount/internal/rng"
	"popcount/internal/sim"
)

// tokenBagArray is the hand-written agent array of the TokenBag
// baseline, one (bag, best) pair per agent. It is the reference the spec
// form is held to bit for bit.
type tokenBagArray struct {
	bags []int64
	best []int64
}

func newTokenBagArray(n int) *tokenBagArray {
	b := &tokenBagArray{bags: make([]int64, n), best: make([]int64, n)}
	for i := range b.bags {
		b.bags[i] = 1
		b.best[i] = 1
	}
	return b
}

func (p *tokenBagArray) N() int { return len(p.bags) }

func (p *tokenBagArray) Interact(u, v int, _ *rng.Rand) { p.interactOne(u, v) }

// interactOne merges the responder's bag into the initiator's and
// spreads the maximum bag size.
func (p *tokenBagArray) interactOne(u, v int) {
	bu, bv := p.bags[u], p.bags[v]
	if bu > 0 && bv > 0 {
		bu += bv
		p.bags[u], p.bags[v] = bu, 0
		bv = 0
	}
	m := p.best[u]
	if x := p.best[v]; x > m {
		m = x
	}
	if bu > m {
		m = bu
	}
	if bv > m {
		m = bv
	}
	p.best[u], p.best[v] = m, m
}

// InteractBatch implements sim.BatchInteractor, bit for bit the scalar
// path, with pair drawing devirtualized for the uniform scheduler.
func (p *tokenBagArray) InteractBatch(count int64, sched sim.Scheduler, r *rng.Rand) {
	n := len(p.bags)
	if _, ok := sched.(sim.UniformScheduler); ok {
		for i := int64(0); i < count; i++ {
			u, v := r.Pair(n)
			p.interactOne(u, v)
		}
		return
	}
	for i := int64(0); i < count; i++ {
		u, v := sched.Next(n, r)
		p.interactOne(u, v)
	}
}

// Converged reports whether every agent outputs n.
func (p *tokenBagArray) Converged() bool {
	n := int64(len(p.bags))
	for _, b := range p.best {
		if b != n {
			return false
		}
	}
	return true
}

func (p *tokenBagArray) Output(i int) int64 { return p.best[i] }

// TestTokenBagSpecMatchesArray holds the spec's agent form to the
// hand-written array bit for bit: equal results and equal per-agent
// outputs under equal seeds, on the uniform, matching and biased
// schedulers, down both the batched and the scalar engine paths.
func TestTokenBagSpecMatchesArray(t *testing.T) {
	scheds := []struct {
		name string
		mk   func() sim.Scheduler
	}{
		{"uniform", func() sim.Scheduler { return nil }},
		{"matching", func() sim.Scheduler { return sim.NewMatchingScheduler() }},
		{"biased", func() sim.Scheduler { return sim.BiasedScheduler{Hot: 0, Bias: 0.3} }},
	}
	for _, n := range []int{2, 3, 16, 64, 128, 1024} {
		for _, sc := range scheds {
			for _, disable := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/%s/disable-batch=%v", n, sc.name, disable), func(t *testing.T) {
					for seed := uint64(1); seed <= 6; seed++ {
						arr := newTokenBagArray(n)
						spec := sim.NewSpecAgent(NewTokenBagSpec(n))
						cfg := sim.Config{Seed: seed, DisableBatch: disable}
						cfg.Scheduler = sc.mk()
						want, err := sim.Run(arr, cfg)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Scheduler = sc.mk()
						got, err := sim.Run(spec, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("seed %d: spec result %+v, array %+v", seed, got, want)
						}
						if !want.Converged {
							t.Fatalf("seed %d: array run did not converge: %+v", seed, want)
						}
						for i := 0; i < n; i++ {
							if a, b := spec.Output(i), arr.Output(i); a != b {
								t.Fatalf("seed %d: agent %d outputs %d on the spec, %d on the array", seed, i, a, b)
							}
							if a, b := spec.Code(i), tokenBagCode(uint64(arr.bags[i]), uint64(arr.best[i])); a != b {
								t.Fatalf("seed %d: agent %d in state %#x on the spec, %#x on the array", seed, i, a, b)
							}
						}
					}
				})
			}
		}
	}
}
