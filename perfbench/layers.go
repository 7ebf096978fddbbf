package main

import (
	"fmt"
	"time"

	"popcount/internal/core"
	"popcount/internal/rng"
	"popcount/internal/sim"
	"popcount/internal/sim/countdist"
)

// The layers below have no boundary the benchmark can reach inside a
// run, so the traced run times their public functions in isolation, on
// inputs sized from the workloads. These numbers are reported by the
// traced run only and never enter an end-to-end metric.

// probes holds the isolated layer timings (ns per call) and the memo
// size they were measured on.
type probes struct {
	memoPairs                int
	memoHitNs, internCodeNs  float64
	pairNs                   float64
	binomialNs, hypergeomNs  float64
	findNs, addNs            float64
	epochTau, epochOccupied  int64
	fenwickSlots, fenwickOcc int
}

// probeSizes are the workload sizes the probes copy.
type probeSizes struct {
	exactN  int // exact-agent's and service-mix's population
	approxN int // approx-batched's population
}

func sizesFor(cfg runConfig) probeSizes {
	if cfg.tiny {
		return probeSizes{exactN: exactAgent.tinyN, approxN: approxBatched.tinyN}
	}
	return probeSizes{exactN: exactAgent.n, approxN: approxBatched.n}
}

// sink keeps timed results observable so the loops are not optimized
// away.
var sink uint64

// timePerCall runs body (which performs calls operations) reps times
// and returns the median time per call in nanoseconds.
func timePerCall(reps, calls int, body func()) float64 {
	per := make([]float64, reps)
	for i := range per {
		t := time.Now()
		body()
		per[i] = float64(time.Since(t).Nanoseconds()) / float64(calls)
	}
	return median(per)
}

const probeReps = 7

func runProbes(cfg runConfig) (probes, error) {
	var p probes
	sz := sizesFor(cfg)
	if err := p.memo(sz.exactN, trialSeed(cfg.seed, 0)); err != nil {
		return p, err
	}
	p.pair(sz.exactN, cfg.seed)
	if err := p.epochSamplers(sz.approxN, cfg.seed); err != nil {
		return p, err
	}
	if err := p.fenwick(sz.exactN, cfg.seed); err != nil {
		return p, err
	}
	return p, nil
}

// memo replays exact-agent's first trial on a CountExact spec built by
// the same internal/core constructor popcount uses, sampling the code
// pairs its DeltaMemo resolves. It then times DeltaMemo.Delta on those
// pairs — all hits by now — and Interner.Code hits through the spec's
// DecodeState (decode, canonicalize, Code), the one public path into the
// spec's interner.
func (p *probes) memo(n int, seed uint64) error {
	spec := core.NewCountExactSpec(core.Config{N: n})
	resolve := spec.Delta
	var seen [][2]uint64
	calls := 0
	spec.Delta = func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
		if calls++; calls%61 == 0 && len(seen) < 1<<16 {
			seen = append(seen, [2]uint64{qu, qv})
		}
		return resolve(qu, qv, r)
	}
	eng, err := sim.NewEngine(sim.NewSpecAgent(spec.Spec), sim.Config{Seed: seed})
	if err != nil {
		return err
	}
	if res, err := eng.RunToConvergence(); err != nil || !res.Converged {
		return fmt.Errorf("memo probe: CountExact n=%d did not converge (%v)", n, err)
	}
	p.memoPairs = spec.Memo.Pairs()
	var det [][2]uint64
	for _, q := range seen {
		if !spec.Memo.Randomized(q[0], q[1]) {
			det = append(det, q)
		}
	}
	if len(det) == 0 {
		return fmt.Errorf("memo probe: no deterministic pairs sampled from %d Delta calls", calls)
	}
	r := rng.New(seed)
	p.memoHitNs = timePerCall(probeReps, 16*len(det), func() {
		for k := 0; k < 16; k++ {
			for _, q := range det {
				a, b := spec.Memo.Delta(q[0], q[1], r)
				sink += a ^ b
			}
		}
	})

	codes := map[uint64]bool{}
	var enc [][]byte
	var want []uint64
	for _, q := range det {
		for _, c := range q {
			if !codes[c] {
				codes[c] = true
				enc = append(enc, spec.EncodeState(c))
				want = append(want, c)
			}
		}
	}
	for i, b := range enc {
		if c, err := spec.DecodeState(b); err != nil || c != want[i] {
			return fmt.Errorf("interner probe: state %d decodes to code %d (%v)", want[i], c, err)
		}
	}
	reps := max(1, (1<<18)/len(enc))
	p.internCodeNs = timePerCall(probeReps, reps*len(enc), func() {
		for k := 0; k < reps; k++ {
			for _, b := range enc {
				c, _ := spec.DecodeState(b)
				sink += c
			}
		}
	})
	return nil
}

// pair times the uniform scheduler's draw at exact-agent's population.
func (p *probes) pair(n int, seed uint64) {
	r := rng.New(seed)
	const calls = 1 << 21
	p.pairNs = timePerCall(probeReps, calls, func() {
		for k := 0; k < calls; k++ {
			u, v := r.Pair(n)
			sink += uint64(u ^ v)
		}
	})
}

// epochSamplers times rng.Binomial and rng.Hypergeometric on the
// arguments one batch epoch of approx-batched draws: it steps a batched
// Approximate engine into its run, takes the occupied counts and the
// mean epoch length τ, and replays the planner's conditional row chain
// (initiator rows, then responder splits) and half-epoch split over
// them to collect the argument lists.
func (p *probes) epochSamplers(n int, seed uint64) error {
	spec := core.NewApproximateSpec(core.Config{N: n}).Spec
	eng, err := sim.NewCountEngine(sim.NewSpecCount(spec), sim.Config{Seed: seed, BatchSteps: true})
	if err != nil {
		return err
	}
	eng.Step(256 * int64(n))
	var counts []int64
	eng.Counts().ForEach(func(_ uint64, c int64) { counts = append(counts, c) })
	tau := int64(n / 8) // tiny populations may not batch at all
	if e := eng.Stats().Epochs; e > 0 {
		tau = eng.Interactions() / e
	}
	p.epochTau, p.epochOccupied = tau, int64(len(counts))

	type binArg struct {
		n int64
		p float64
	}
	var bins []binArg
	var hyps [][3]int64
	r := rng.New(seed)
	N := int64(n)
	rowRem, rowW := tau, N
	sampleRem, totalRem := tau/2, tau
	for i, ci := range counts {
		if rowRem == 0 {
			break
		}
		q := float64(ci) / float64(rowW)
		bins = append(bins, binArg{rowRem, q})
		ri := r.Binomial(rowRem, q)
		rowRem -= ri
		rowW -= ci
		respRem, respW := ri, N-1
		for j, cj := range counts {
			if respRem == 0 {
				break
			}
			w := cj
			if i == j {
				w--
			}
			q := float64(w) / float64(respW)
			bins = append(bins, binArg{respRem, q})
			m := r.Binomial(respRem, q)
			respRem -= m
			respW -= w
			if m > 0 {
				hyps = append(hyps, [3]int64{sampleRem, m, totalRem})
				h := r.Hypergeometric(sampleRem, m, totalRem)
				sampleRem -= h
				totalRem -= m
			}
		}
	}
	if len(bins) == 0 || len(hyps) == 0 {
		return fmt.Errorf("sampler probe: empty epoch (τ=%d, %d occupied)", tau, len(counts))
	}
	reps := max(1, (1<<19)/len(bins))
	p.binomialNs = timePerCall(probeReps, reps*len(bins), func() {
		for k := 0; k < reps; k++ {
			for _, b := range bins {
				sink += uint64(r.Binomial(b.n, b.p))
			}
		}
	})
	reps = max(1, (1<<19)/len(hyps))
	p.hypergeomNs = timePerCall(probeReps, reps*len(hyps), func() {
		for k := 0; k < reps; k++ {
			for _, h := range hyps {
				sink += uint64(r.Hypergeometric(h[0], h[1], h[2]))
			}
		}
	})
	return nil
}

// fenwick times countdist.Sampler32 at the alphabet a service-mix job
// reaches: it runs CountExact on the exact count engine to the
// daemon's first checkpoint (2²⁰ interactions), lays the occupied
// counts over the discovered alphabet, and times Find at uniform
// positions and Add as a +1/−1 pair on the slots those positions hit.
func (p *probes) fenwick(n int, seed uint64) error {
	spec := core.NewCountExactSpec(core.Config{N: n}).Spec
	eng, err := sim.NewCountEngine(sim.NewSpecCount(spec), sim.Config{Seed: trialSeed(seed, 0)})
	if err != nil {
		return err
	}
	eng.Step(serviceCheckpointEvery)
	cfg := eng.Counts()
	var occ []int64
	cfg.ForEach(func(_ uint64, c int64) { occ = append(occ, c) })
	slots := cfg.Discovered()
	p.fenwickSlots, p.fenwickOcc = slots, len(occ)
	w := make([]int64, slots)
	for k, c := range occ {
		w[k*slots/len(occ)] = c
	}
	s := countdist.NewSampler32(slots)
	for _, c := range w {
		s.Append(c)
	}
	r := rng.New(seed)
	const calls = 1 << 16
	xs := make([]int64, calls)
	for i := range xs {
		xs[i] = r.Int64n(s.Total())
	}
	p.findNs = timePerCall(probeReps, 16*calls, func() {
		for k := 0; k < 16; k++ {
			for _, x := range xs {
				sink += uint64(s.Find(x))
			}
		}
	})
	idx := make([]int, calls)
	for i, x := range xs {
		idx[i] = s.Find(x)
	}
	p.addNs = timePerCall(probeReps, 32*calls, func() {
		for k := 0; k < 16; k++ {
			for _, i := range idx {
				s.Add(i, 1)
				s.Add(i, -1)
			}
		}
	})
	return nil
}
