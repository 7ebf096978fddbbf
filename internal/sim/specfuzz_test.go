package sim_test

import (
	"sort"
	"testing"

	"popcount/internal/rng"
	"popcount/internal/sim"
)

// fuzzSpec builds a random transition spec over a tiny alphabet from
// fuzz input: a deterministic successor table, an optional randomized
// fragment (claimed pairs pick between two successor entries by one
// coin), and an optional opt-in to the self-loop skip path. It
// exercises the spec layer's derivations — agent adapter, count
// adapter, transition matrix, no-op predicate — on rule structures no
// hand-written protocol has.
func fuzzSpec(n int, k uint64, raw []byte, flags uint8) *sim.Spec {
	at := func(i int) uint8 {
		if len(raw) == 0 {
			return 0
		}
		return raw[i%len(raw)]
	}
	size := int(k * k)
	table := make([]uint8, size)
	alt := make([]uint8, size)
	randMask := make([]bool, size)
	withRand := flags&1 != 0
	for i := 0; i < size; i++ {
		table[i] = uint8(uint64(at(i)) % (k * k))
		alt[i] = uint8(uint64(at(i+size)) % (k * k))
		// Sparse randomized fragment: roughly a quarter of the pairs.
		randMask[i] = withRand && at(2*size+i)%4 == 0
	}
	var randomized func(qu, qv uint64) bool
	if withRand {
		randomized = func(qu, qv uint64) bool { return randMask[qu*k+qv] }
	}
	var domain uint64
	if flags&4 != 0 {
		// Declare the dense domain: NewSpecAgent precompiles the flat
		// successor table, and the naive reference (which always runs
		// the closure) pins table == closure bit for bit.
		domain = k
	}
	initCounts := func() map[uint64]int64 {
		init := make(map[uint64]int64, k)
		per := int64(n) / int64(k)
		rem := int64(n) - per*int64(k)
		for q := uint64(0); q < k; q++ {
			c := per
			if q == 0 {
				c += rem
			}
			if c > 0 {
				init[q] = c
			}
		}
		return init
	}
	return &sim.Spec{
		Name: "fuzz",
		N:    n,
		Init: initCounts,
		// A fixed block layout keeps the derived agent adapter's random
		// stream identical to the naive reference's (no-Layout specs
		// shuffle their initial assignment with engine randomness).
		Layout: func() []uint64 {
			out := make([]uint64, 0, n)
			init := initCounts()
			for q := uint64(0); q < k; q++ {
				for i := int64(0); i < init[q]; i++ {
					out = append(out, q)
				}
			}
			return out
		},
		Delta: func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
			idx := qu*k + qv
			packed := uint64(table[idx])
			if randMask[idx] && r.Bool() {
				packed = uint64(alt[idx])
			}
			return packed / k, packed % k
		},
		Randomized: randomized,
		Skip:       flags&2 != 0,
		Domain:     domain,
		Output:     func(q uint64) int64 { return int64(q) },
	}
}

// scatterMul spreads a small logical alphabet over the full uint64 code
// space (odd multiplier, hence injective): the shape of an interned or
// hashed product-state spec, where codes carry no arithmetic structure
// and the engines' lazy discovery paths do all the work.
const scatterMul = 0x9E3779B97F4A7C15

// sparseSpec wraps fuzzSpec's random rule in scattered codes: the
// logical state q lives at code q·scatterMul, and Delta round-trips
// through the inverse table. The deterministic fragment is exposed the
// same lazy way (DeltaDet resolves per pair on demand), so the fuzz
// exercises the sparse/large-alphabet row path of the batch planner —
// no dense table can exist over these codes.
func sparseSpec(n int, k uint64, raw []byte, flags uint8) *sim.Spec {
	dense := fuzzSpec(n, k, raw, flags)
	dense.Domain = 0 // scattered codes have no dense domain
	enc := func(q uint64) uint64 { return q * scatterMul }
	dec := make(map[uint64]uint64, k)
	for q := uint64(0); q < k; q++ {
		dec[enc(q)] = q
	}
	denseInit := dense.Init
	denseDelta := dense.Delta
	denseRand := dense.Randomized
	spec := *dense
	spec.Name = "fuzz-sparse"
	spec.Init = func() map[uint64]int64 {
		init := make(map[uint64]int64, k)
		for q, c := range denseInit() {
			init[enc(q)] = c
		}
		return init
	}
	spec.Layout = func() []uint64 {
		// Expand blocks in ascending SCATTERED-code order, matching the
		// naive reference's sorted-block construction (scattering does
		// not preserve the logical order of the alphabet).
		init := spec.Init()
		codes := make([]uint64, 0, len(init))
		for code := range init {
			codes = append(codes, code)
		}
		sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
		out := make([]uint64, 0, n)
		for _, code := range codes {
			for x := int64(0); x < init[code]; x++ {
				out = append(out, code)
			}
		}
		return out
	}
	spec.Delta = func(qu, qv uint64, r *rng.Rand) (uint64, uint64) {
		a, b := denseDelta(dec[qu], dec[qv], r)
		return enc(a), enc(b)
	}
	if denseRand != nil {
		spec.Randomized = func(qu, qv uint64) bool { return denseRand(dec[qu], dec[qv]) }
	}
	spec.Output = func(q uint64) int64 { return int64(dec[q]) }
	return &spec
}

// naiveSpecAgent is the obvious agent-array implementation of a spec —
// a plain code array with no mirror, no batching — used as the
// reference the derived SpecAgent must match bit for bit.
type naiveSpecAgent struct {
	spec *sim.Spec
	code []uint64
}

func newNaiveSpecAgent(spec *sim.Spec) *naiveSpecAgent {
	p := &naiveSpecAgent{spec: spec}
	init := spec.Init()
	codes := make([]uint64, 0, len(init))
	for code := range init {
		codes = append(codes, code)
	}
	for i := 0; i < len(codes); i++ {
		for j := i + 1; j < len(codes); j++ {
			if codes[j] < codes[i] {
				codes[i], codes[j] = codes[j], codes[i]
			}
		}
	}
	for _, code := range codes {
		for x := int64(0); x < init[code]; x++ {
			p.code = append(p.code, code)
		}
	}
	return p
}

func (p *naiveSpecAgent) N() int { return len(p.code) }

func (p *naiveSpecAgent) Interact(u, v int, r *rng.Rand) {
	p.code[u], p.code[v] = p.spec.Delta(p.code[u], p.code[v], r)
}

// FuzzSpecAdapters fuzzes the spec layer end to end: the derived agent
// adapter must match the naive reference implementation bit for bit
// (same seed, same engine), its count mirror must equal the code
// array's histogram and sum to n, and the derived count form must
// conserve Σ counts == n with non-negative counts and an exact
// interaction counter on the exact, skip and batched paths alike.
func FuzzSpecAdapters(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint16(500), uint8(0), []byte{0x5a})
	f.Add(uint64(42), uint16(2), uint16(1), uint8(1), []byte{})
	f.Add(uint64(7), uint16(300), uint16(9999), uint8(2), []byte{1, 2, 3, 4})
	f.Add(uint64(9), uint16(33), uint16(256), uint8(3), []byte{0xff, 0x00})
	f.Add(uint64(3), uint16(17), uint16(77), uint8(7), []byte{0x10, 0x9c, 0x33})
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, stepsRaw uint16, flags uint8, raw []byte) {
		n := int(nRaw)%1022 + 2 // [2, 1023]
		steps := int64(stepsRaw)%5000 + 1
		k := uint64(len(raw))%5 + 2 // alphabet size [2, 6]
		checkSpecAdapters(t, func() *sim.Spec { return fuzzSpec(n, k, raw, flags) }, n, k, steps, seed)
	})
}

// FuzzSpecSparseAdapters is FuzzSpecAdapters over scattered
// large-alphabet codes: the same random rules, but with state codes
// spread across the full uint64 space the way interned product-state
// specs spread theirs. It exercises the engines' lazy discovery and
// the batch planner's on-demand (sparse) DeltaDet row derivation,
// where no dense successor table can exist.
func FuzzSpecSparseAdapters(f *testing.F) {
	f.Add(uint64(1), uint16(64), uint16(500), uint8(0), []byte{0x5a})
	f.Add(uint64(42), uint16(2), uint16(1), uint8(1), []byte{})
	f.Add(uint64(7), uint16(300), uint16(9999), uint8(2), []byte{1, 2, 3, 4})
	f.Add(uint64(9), uint16(33), uint16(256), uint8(3), []byte{0xff, 0x00})
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, stepsRaw uint16, flags uint8, raw []byte) {
		n := int(nRaw)%1022 + 2
		steps := int64(stepsRaw)%5000 + 1
		k := uint64(len(raw))%5 + 2
		checkSpecAdapters(t, func() *sim.Spec { return sparseSpec(n, k, raw, flags) }, n, k, steps, seed)
	})
}

// checkSpecAdapters runs the shared spec-layer invariant battery: the
// derived agent adapter must match the naive reference bit for bit,
// its count mirror must equal the code array's histogram with a tight
// occupied window after every step batch, and the
// derived count form must conserve Σ counts == n with non-negative
// counts, a tight occupied window and an exact interaction counter on
// the exact and batched paths alike.
func checkSpecAdapters(t *testing.T, mkSpec func() *sim.Spec, n int, k uint64, steps int64, seed uint64) {
	t.Helper()

	// Agent adapter vs naive reference, bit for bit.
	agent := sim.NewSpecAgent(mkSpec())
	naive := newNaiveSpecAgent(mkSpec())
	ea, err := sim.NewEngine(agent, sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	en, err := sim.NewEngine(naive, sim.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var done int64
	for batch := int64(1); done < steps; batch = batch*3 + 1 {
		if batch > steps-done {
			batch = steps - done
		}
		ea.Step(batch)
		en.Step(batch)
		done += batch
		if err := sim.CheckMirror(agent); err != nil {
			t.Fatalf("mirror after %d interactions: %v", done, err)
		}
	}
	hist := make(map[uint64]int64, k)
	for i := 0; i < n; i++ {
		if agent.Code(i) != naive.code[i] {
			t.Fatalf("agent %d: adapter code %d, naive code %d", i, agent.Code(i), naive.code[i])
		}
		hist[naive.code[i]]++
	}
	var mirrorSum int64
	agent.View().ForEach(func(code uint64, cnt int64) {
		mirrorSum += cnt
		if hist[code] != cnt {
			t.Fatalf("mirror count %d for state %d, histogram %d", cnt, code, hist[code])
		}
	})
	if mirrorSum != int64(n) {
		t.Fatalf("mirror sums to %d, want %d", mirrorSum, n)
	}

	// Count adapter conservation on every engine path.
	for _, mode := range []struct {
		name  string
		batch bool
	}{{"exact", false}, {"batched", true}} {
		e, err := sim.NewCountEngine(sim.NewSpecCount(mkSpec()),
			sim.Config{Seed: seed, BatchSteps: mode.batch})
		if err != nil {
			t.Fatalf("%s: NewCountEngine: %v", mode.name, err)
		}
		var done int64
		for batch := int64(1); done < steps; batch = batch*3 + 1 {
			if batch > steps-done {
				batch = steps - done
			}
			e.Step(batch)
			done += batch
			if err := sim.CheckWindow(e); err != nil {
				t.Fatalf("%s: window after %d interactions: %v", mode.name, done, err)
			}
			if got := e.Counts().Sum(); got != int64(n) {
				t.Fatalf("%s: Σ counts = %d after %d interactions, want %d", mode.name, got, done, n)
			}
			e.Counts().ForEach(func(code uint64, cnt int64) {
				if cnt < 0 {
					t.Fatalf("%s: negative count %d for state %d", mode.name, cnt, code)
				}
			})
			if e.Interactions() != done {
				t.Fatalf("%s: Interactions = %d, want %d", mode.name, e.Interactions(), done)
			}
		}
	}
}
