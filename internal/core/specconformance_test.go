// Golden pins of the core spec agents. Every value below was recorded
// from the hand-written agent arrays (core.Approximate, CountExact,
// StableApproximate, StableCountExact) before they were removed, and
// the spec agent reproduced each one bit for bit at the time. The
// reference loop (reference_test.go) checks the rule state by state but
// never polls convergence and steps only under the uniform scheduler;
// these pins cover the rest: each spec Converged predicate must stop at
// the same poll as the array's did, the Errored probe must agree, and
// the biased and matching scheduler paths must match.
package core_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"popcount/internal/core"
	"popcount/internal/sim"
)

// goldenPin is one recorded run of a core protocol on the agent engine.
type goldenPin struct {
	name string
	cfg  func() sim.Config
	// spec builds the protocol; metrics, when non-nil, reads its
	// StateMetrics off the finished configuration.
	spec    func() (*sim.Spec, func(sim.ConfigView) core.StateMetrics)
	res     sim.Result
	errored bool
	metrics core.StateMetrics // checked only when spec returns a reader
	digest  uint64            // FNV-64a of the per-agent outputs
}

// outputDigest is the FNV-64a hash of the agents' outputs, each as a
// little-endian int64, in agent order.
func outputDigest(p *sim.SpecAgent) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < p.N(); i++ {
		binary.LittleEndian.PutUint64(b[:], uint64(p.Output(i)))
		h.Write(b[:])
	}
	return h.Sum64()
}

func checkPins(t *testing.T, pins []goldenPin) {
	t.Helper()
	for _, pin := range pins {
		spec, metrics := pin.spec()
		agent := sim.NewSpecAgent(spec)
		res, err := sim.Run(agent, pin.cfg())
		if err != nil {
			t.Fatalf("%s: %v", pin.name, err)
		}
		if res != pin.res {
			t.Errorf("%s: result %+v, pinned %+v", pin.name, res, pin.res)
		}
		if got := agent.Errored(); got != pin.errored {
			t.Errorf("%s: Errored %v, pinned %v", pin.name, got, pin.errored)
		}
		if metrics != nil {
			if got := metrics(agent.View()); got != pin.metrics {
				t.Errorf("%s: metrics %+v, pinned %+v", pin.name, got, pin.metrics)
			}
		}
		if got := outputDigest(agent); got != pin.digest {
			t.Errorf("%s: output digest %#016x, pinned %#016x", pin.name, got, pin.digest)
		}
	}
}

func approxPin(n int) func() (*sim.Spec, func(sim.ConfigView) core.StateMetrics) {
	return func() (*sim.Spec, func(sim.ConfigView) core.StateMetrics) {
		p := core.NewApproximateSpec(core.Config{N: n})
		return p.Spec, p.Metrics
	}
}

func exactPin(n int) func() (*sim.Spec, func(sim.ConfigView) core.StateMetrics) {
	return func() (*sim.Spec, func(sim.ConfigView) core.StateMetrics) {
		p := core.NewCountExactSpec(core.Config{N: n})
		return p.Spec, p.Metrics
	}
}

func stableApproxPin(n int, fault bool) func() (*sim.Spec, func(sim.ConfigView) core.StateMetrics) {
	return func() (*sim.Spec, func(sim.ConfigView) core.StateMetrics) {
		return core.NewStableApproximateSpec(core.Config{N: n}, fault).Spec, nil
	}
}

func stableExactPin(n int, fault bool) func() (*sim.Spec, func(sim.ConfigView) core.StateMetrics) {
	return func() (*sim.Spec, func(sim.ConfigView) core.StateMetrics) {
		return core.NewStableCountExactSpec(core.Config{N: n}, fault).Spec, nil
	}
}

func uniformCfg(seed uint64, checkEvery, maxI int64) func() sim.Config {
	return func() sim.Config { return sim.Config{Seed: seed, CheckEvery: checkEvery, MaxInteractions: maxI} }
}

// E16's perturbed schedulers: a chatty agent 0 initiating an extra 20%
// of interactions, and random matchings. Each run gets a fresh
// scheduler (the matching scheduler is stateful).
func biasedCfg(seed uint64) func() sim.Config {
	return func() sim.Config { return sim.Config{Seed: seed, Scheduler: sim.BiasedScheduler{Hot: 0, Bias: 0.2}} }
}

func matchingCfg(seed uint64) func() sim.Config {
	return func() sim.Config { return sim.Config{Seed: seed, Scheduler: sim.NewMatchingScheduler()} }
}

func converged(t int64) sim.Result {
	return sim.Result{Interactions: t, Total: t, Converged: true, Stable: true}
}

func TestSpecAgentMatchesApproximateBitForBit(t *testing.T) {
	checkPins(t, []goldenPin{
		{name: "approximate n=300", cfg: uniformCfg(0xC0A1, 300, 0), spec: approxPin(300),
			res: converged(1054500), metrics: core.StateMetrics{MaxLevel: 2, MaxK: 9}, digest: 0xc10a478f759f05e5},
		{name: "approximate n=512 biased 20%", cfg: biasedCfg(0xC0A6), spec: approxPin(512),
			res: converged(1389056), metrics: core.StateMetrics{MaxLevel: 2, MaxK: 9}, digest: 0xb53fe1d326024325},
		{name: "approximate n=512 matching", cfg: matchingCfg(0xC0A6), spec: approxPin(512),
			res: converged(707072), metrics: core.StateMetrics{MaxLevel: 63, MaxK: 9}, digest: 0xb53fe1d326024325},
	})
}

func TestSpecAgentMatchesCountExactBitForBit(t *testing.T) {
	checkPins(t, []goldenPin{
		{name: "exact n=300", cfg: uniformCfg(0xC0A2, 300, 0), spec: exactPin(300),
			res: converged(461100), metrics: core.StateMetrics{MaxLevel: 3, MaxK: 8, MaxLoad: 56005}, digest: 0x04b45af902b0e4b5},
		{name: "exact n=512 biased 20%", cfg: biasedCfg(0xC0A7), spec: exactPin(512),
			res: converged(302080), metrics: core.StateMetrics{MaxLevel: 2, MaxK: 9, MaxLoad: 131140}, digest: 0x50b72a637840a325},
		{name: "exact n=512 matching", cfg: matchingCfg(0xC0A7), spec: exactPin(512),
			res: converged(180736), metrics: core.StateMetrics{MaxLevel: 63, MaxK: 9, MaxLoad: 131184}, digest: 0x50b72a637840a325},
	})
}

// The stable variants are pinned on the clean path and on the
// fault-injected path, the latter under a 4M-interaction budget; both
// fault runs detect the corruption and finish on the backup instance.
func TestSpecAgentMatchesStableApproximateBitForBit(t *testing.T) {
	checkPins(t, []goldenPin{
		{name: "stable-approximate clean", cfg: uniformCfg(0xC0A3, 256, 0), spec: stableApproxPin(256, false),
			res: converged(773120), digest: 0xd398e9b889574325},
		{name: "stable-approximate fault", cfg: uniformCfg(0xC0A3, 256, 4_000_000), spec: stableApproxPin(256, true),
			res: converged(1024256), errored: true, digest: 0xd398e9b889574325},
	})
}

func TestSpecAgentMatchesStableCountExactBitForBit(t *testing.T) {
	checkPins(t, []goldenPin{
		{name: "stable-exact clean", cfg: uniformCfg(0xC0A4, 256, 0), spec: stableExactPin(256, false),
			res: converged(182528), digest: 0x2ffe28e774b01325},
		{name: "stable-exact fault", cfg: uniformCfg(0xC0A4, 256, 4_000_000), spec: stableExactPin(256, true),
			res: converged(229376), errored: true, digest: 0x2ffe28e774b01325},
	})
}

// TestSpecViewMetricsMatch pins the configuration-level metrics
// decoders after a converged run at one more seed, against the metrics
// the agent arrays reported there.
func TestSpecViewMetricsMatch(t *testing.T) {
	checkPins(t, []goldenPin{
		{name: "approximate n=300 seed 0xC0A5", cfg: uniformCfg(0xC0A5, 300, 0), spec: approxPin(300),
			res: converged(1004100), metrics: core.StateMetrics{MaxLevel: 2, MaxK: 9}, digest: 0xc10a478f759f05e5},
		{name: "exact n=300 seed 0xC0A5", cfg: uniformCfg(0xC0A5, 300, 0), spec: exactPin(300),
			res: converged(237000), metrics: core.StateMetrics{MaxLevel: 2, MaxK: 9, MaxLoad: 223745}, digest: 0x04b45af902b0e4b5},
	})
}
