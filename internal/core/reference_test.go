// The reference loop: the hand-written form of each core protocol, kept
// as a test. It steps a plain agent array with the rule's stepPair on
// the engine's pair stream (rng.New(seed), r.Pair(n)) while the spec
// agent runs the same seed on the agent engine, and after every chunk
// demands that each agent's canonical state equal the spec agent's
// decoded state. A state canonicalization that zeroes a field still
// read later, a coin-claim predicate that lets the Delta memo replay a
// randomized pair, or any other drift in the repackaging shows up as
// the first differing agent.
package core

import (
	"testing"

	"popcount/internal/rng"
	"popcount/internal/sim"
)

// referenceLoop runs steps interactions of the plain array form and of
// spec's agent form from one seed and compares them state by state.
func referenceLoop[S comparable](t testing.TB, name string, n int, seed uint64, steps int64,
	spec *sim.Spec, init S, step func(a, b *S, r *rng.Rand), canon func(S) S, decode func(uint64) S) {
	t.Helper()
	agent := sim.NewSpecAgent(spec)
	e, err := sim.NewEngine(agent, sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ag := make([]S, n)
	for i := range ag {
		ag[i] = init
	}
	r := rng.New(seed)
	chunk := int64(4 * n)
	for done := int64(0); done < steps; {
		c := min(chunk, steps-done)
		for k := int64(0); k < c; k++ {
			u, v := r.Pair(n)
			step(&ag[u], &ag[v], r)
		}
		e.Step(c)
		done += c
		for i := range ag {
			if got, want := decode(agent.Code(i)), canon(ag[i]); got != want {
				t.Fatalf("%s n=%d seed=%d: agent %d differs after %d interactions:\nspec  %+v\narray %+v",
					name, n, seed, i, done, got, want)
			}
		}
	}
}

// referenceProtocols are the reference-loop cases: the four core
// protocols, the stable ones with and without the fault flag.
var referenceProtocols = []struct {
	name string
	run  func(t testing.TB, n int, seed uint64, steps int64)
}{
	{"approximate", func(t testing.TB, n int, seed uint64, steps int64) {
		p := NewApproximateSpec(Config{N: n})
		referenceLoop(t, "approximate", n, seed, steps, p.Spec, p.rule.initAgent(), p.rule.stepPair, canonApprox, p.in.State)
	}},
	{"exact", func(t testing.TB, n int, seed uint64, steps int64) {
		p := NewCountExactSpec(Config{N: n})
		referenceLoop(t, "exact", n, seed, steps, p.Spec, p.rule.initAgent(), p.rule.stepPair, canonExact, p.in.State)
	}},
	{"stable-approximate", func(t testing.TB, n int, seed uint64, steps int64) {
		p := NewStableApproximateSpec(Config{N: n}, false)
		referenceLoop(t, "stable-approximate", n, seed, steps, p.Spec, p.rule.initAgent(), p.rule.stepPair, canonStableApprox, p.in.State)
	}},
	{"stable-approximate fault", func(t testing.TB, n int, seed uint64, steps int64) {
		p := NewStableApproximateSpec(Config{N: n}, true)
		referenceLoop(t, "stable-approximate fault", n, seed, steps, p.Spec, p.rule.initAgent(), p.rule.stepPair, canonStableApprox, p.in.State)
	}},
	{"stable-exact", func(t testing.TB, n int, seed uint64, steps int64) {
		p := NewStableCountExactSpec(Config{N: n}, false)
		referenceLoop(t, "stable-exact", n, seed, steps, p.Spec, p.rule.initAgent(), p.rule.stepPair, canonStableExact, p.in.State)
	}},
	{"stable-exact fault", func(t testing.TB, n int, seed uint64, steps int64) {
		p := NewStableCountExactSpec(Config{N: n}, true)
		referenceLoop(t, "stable-exact fault", n, seed, steps, p.Spec, p.rule.initAgent(), p.rule.stepPair, canonStableExact, p.in.State)
	}},
}

// TestSpecArrayReference runs the reference loop for every protocol at
// small n. The budget of 3000·n interactions carries every run past
// convergence — the slowest, stable-approximate with the fault flag at
// n = 64 seed 2, converges after ~2800·n — through election, search or
// approximation, refinement, error detection and, with the fault flag,
// the backup. The fuzzer (FuzzSpecArrayReference) covers wider sizes
// and seeds.
func TestSpecArrayReference(t *testing.T) {
	perAgent := int64(3000)
	if testing.Short() {
		perAgent = 750
	}
	for _, p := range referenceProtocols {
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for _, n := range []int{2, 3, 7, 16, 64} {
				for _, seed := range []uint64{1, 2} {
					p.run(t, n, seed, perAgent*int64(n))
				}
			}
		})
	}
}

// FuzzSpecArrayReference drives the reference loop with a fuzzed
// protocol, population size n ∈ [2, 128], seed and step budget ≤ 2¹⁹.
func FuzzSpecArrayReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(1), uint32(100_000)) // approximate, n=2
	f.Add(uint8(1), uint8(1), uint64(2), uint32(100_000)) // exact, n=3
	f.Add(uint8(2), uint8(1), uint64(3), uint32(100_000)) // stable-approximate, n=3
	f.Add(uint8(4), uint8(0), uint64(4), uint32(100_000)) // stable-exact, n=2
	// Fault-injected stable runs that detect the corruption and reach
	// the backup instance within the budget.
	f.Add(uint8(3), uint8(14), uint64(5), uint32(1<<19)) // stable-approximate fault, n=16
	f.Add(uint8(5), uint8(14), uint64(6), uint32(1<<19)) // stable-exact fault, n=16
	f.Fuzz(func(t *testing.T, proto, n uint8, seed uint64, steps uint32) {
		p := referenceProtocols[int(proto)%len(referenceProtocols)]
		p.run(t, 2+int(n)%127, seed, int64(steps%(1<<19+1)))
	})
}
