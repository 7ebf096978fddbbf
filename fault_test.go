package popcount

import (
	"errors"
	"math"
	"reflect"
	"testing"
)

// burstPlan is the reference fault schedule of the public-API tests:
// two corruption bursts and a churn event, all mid-run for n≈1024-sized
// populations.
func burstPlan() FaultPlan {
	return FaultPlan{
		Seed:   5,
		Bursts: []FaultBurst{{At: 2000, Agents: 64}, {At: 6000, Agents: 32, Random: true}},
		Churn:  []FaultChurn{{At: 4000, Agents: 48}},
	}
}

// TestWithFaultsDeterministic pins the public bit-for-bit claim on the
// agent engine: two runs of the same algorithm, seed and fault plan
// produce identical results, outputs and fault counters, and the plan
// actually fires.
func TestWithFaultsDeterministic(t *testing.T) {
	run := func() (Result, EngineStats) {
		t.Helper()
		s, err := NewSimulation(Approximate, 256, WithSeed(3), WithFaults(burstPlan()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunToConvergence()
		if err != nil {
			t.Fatal(err)
		}
		return res, s.Stats()
	}
	r1, st1 := run()
	r2, st2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("faulted runs diverged:\n%+v\n%+v", r1, r2)
	}
	if st1 != st2 {
		t.Fatalf("fault stats diverged:\n%+v\n%+v", st1, st2)
	}
	if st1.FaultEvents != 3 || st1.Corrupted != 96 || st1.Churned != 48 {
		t.Fatalf("burst plan misapplied: %+v", st1)
	}
	if !r1.Converged {
		t.Fatal("faulted run did not converge")
	}
}

// TestWithFaultsCrossEngineDistributional is the cross-engine
// conformance pin at n=1024: the same burst-corruption plan on the
// agent, count and batched engines must agree distributionally —
// convergence behavior, convergence times and estimates within
// tolerance over a seed ensemble. (Bit-for-bit equality across engine
// forms is impossible: they consume the RNG stream differently.)
func TestWithFaultsCrossEngineDistributional(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed ensemble")
	}
	const n, seeds = 1024, 12
	plan := FaultPlan{
		Seed:   9,
		Bursts: []FaultBurst{{At: 3 * n, Agents: n / 8}, {At: 10 * n, Agents: n / 16, Random: true}},
		Churn:  []FaultChurn{{At: 5 * n, Agents: n / 8}},
	}
	type agg struct {
		converged int
		meanT     float64
		meanEst   float64
	}
	measure := func(kind EngineKind) agg {
		t.Helper()
		var a agg
		for seed := uint64(1); seed <= seeds; seed++ {
			s, err := NewSimulation(Approximate, n, WithSeed(seed), WithEngine(kind), WithFaults(plan))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.RunToConvergence()
			if err != nil {
				t.Fatal(err)
			}
			if res.Converged {
				a.converged++
				a.meanT += float64(res.Interactions)
				a.meanEst += float64(res.Estimate)
			}
			if st := s.Stats(); st.FaultEvents != 3 {
				t.Fatalf("%v seed %d: %d fault events, want 3", kind, seed, st.FaultEvents)
			}
		}
		if a.converged > 0 {
			a.meanT /= float64(a.converged)
			a.meanEst /= float64(a.converged)
		}
		return a
	}
	agent := measure(EngineAgent)
	count := measure(EngineCount)
	batched := measure(EngineCountBatched)
	for _, tc := range []struct {
		name string
		got  agg
	}{{"count", count}, {"count-batched", batched}} {
		if d := tc.got.converged - agent.converged; d < -2 || d > 2 {
			t.Errorf("%s: %d/%d trials converged, agent %d/%d", tc.name, tc.got.converged, seeds, agent.converged, seeds)
		}
		if agent.converged > 0 && tc.got.converged > 0 {
			if r := tc.got.meanT / agent.meanT; r < 0.6 || r > 1.67 {
				t.Errorf("%s: mean convergence time %.0f vs agent %.0f (ratio %.2f)", tc.name, tc.got.meanT, agent.meanT, r)
			}
			if r := tc.got.meanEst / agent.meanEst; r < 0.7 || r > 1.43 {
				t.Errorf("%s: mean estimate %.0f vs agent %.0f (ratio %.2f)", tc.name, tc.got.meanEst, agent.meanEst, r)
			}
		}
	}
}

// TestFaultySnapshotResume pins the checkpoint claim: a faulted run
// snapshotted mid-schedule resumes bit-for-bit on both engine families,
// through the public PCSS envelope.
func TestFaultySnapshotResume(t *testing.T) {
	for _, kind := range []EngineKind{EngineAgent, EngineCount, EngineCountBatched} {
		t.Run(kind.String(), func(t *testing.T) {
			plan := burstPlan()
			plan.CorruptSearch = true
			opts := []Option{WithSeed(11), WithEngine(kind), WithFaults(plan)}
			alg := StableApproximate
			ref, err := NewSimulation(alg, 256, opts...)
			if err != nil {
				t.Fatal(err)
			}
			ref.Step(3000) // between the first burst and the churn event
			snap, err := ref.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			refRes, err := ref.RunToConvergence()
			if err != nil {
				t.Fatal(err)
			}

			res, err := RestoreSimulation(snap)
			if err != nil {
				t.Fatal(err)
			}
			if res.Engine() != kind || res.Algorithm() != alg || res.N() != 256 {
				t.Fatalf("restored identity %v/%v/%d", res.Engine(), res.Algorithm(), res.N())
			}
			resRes, err := res.RunToConvergence()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(refRes, resRes) {
				t.Fatalf("resumed result diverged:\n%+v\n%+v", refRes, resRes)
			}
			if ref.Stats() != res.Stats() {
				t.Fatalf("resumed stats diverged:\n%+v\n%+v", ref.Stats(), res.Stats())
			}
			if st := res.Stats(); st.FaultEvents != 3 {
				t.Fatalf("resumed run applied %d fault events, want 3", st.FaultEvents)
			}
		})
	}
}

// TestFaultPlanStringRoundTrip pins the canonical text form: plans
// survive String → ParseFaultPlan unchanged, and the zero plan renders
// empty.
func TestFaultPlanStringRoundTrip(t *testing.T) {
	plans := []FaultPlan{
		{},
		burstPlan(),
		{Seed: 42, CorruptRate: 0.125, CorruptAgents: 3, CorruptRandom: true},
		{ChurnRate: 1e-3, ChurnAgents: 7, Churn: []FaultChurn{{At: 0, Agents: 1}}},
		{Adversary: AdversaryStaleReplay, AdversaryRate: 2.5},
		{Adversary: AdversaryConvergence, AdversaryAgents: 9, CorruptRandom: true},
		{CorruptSearch: true},
		{Seed: math.MaxUint64, CorruptRate: math.Pi},
	}
	for _, p := range plans {
		got, err := ParseFaultPlan(p.String())
		if err != nil {
			t.Fatalf("plan %q did not parse back: %v", p.String(), err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip of %q:\n want %+v\n got  %+v", p.String(), p, got)
		}
	}
	if s := (FaultPlan{}).String(); s != "" {
		t.Fatalf("zero plan renders %q, want empty", s)
	}

	for _, bad := range []string{
		"bogus=1", "burst=10", "burst=x:1", "rate=NaN", "rate=x",
		"adversary=mean", "churn=1:2:random", "seed=-1", "agents=x",
	} {
		if _, err := ParseFaultPlan(bad); !errors.Is(err, ErrBadFaultPlan) {
			t.Errorf("ParseFaultPlan(%q): err = %v, want ErrBadFaultPlan", bad, err)
		}
	}
}

// TestWithFaultsRejections pins construction-time validation:
// scheduler overrides are incompatible with dynamic fault plans, and
// structurally invalid plans fail with ErrBadFaultPlan — all at
// construction, never at run time. Every algorithm takes fault plans,
// TokenBag included.
func TestWithFaultsRejections(t *testing.T) {
	plan := burstPlan()
	if _, err := NewSimulation(TokenBag, 64, WithFaults(plan)); err != nil {
		t.Fatalf("TokenBag with faults: %v", err)
	}
	if err := Validate(TokenBag, 64, WithFaults(plan)); err != nil {
		t.Fatalf("Validate TokenBag with faults: %v", err)
	}
	if _, err := NewSimulation(Approximate, 64, WithFaults(plan), WithScheduler(RandomMatching)); !errors.Is(err, ErrUnsupportedEngine) {
		t.Fatalf("scheduler override with faults: err = %v, want ErrUnsupportedEngine", err)
	}
	invalid := FaultPlan{Bursts: []FaultBurst{{At: -5, Agents: 1}}}
	if _, err := NewSimulation(Approximate, 64, WithFaults(invalid)); !errors.Is(err, ErrBadFaultPlan) {
		t.Fatalf("invalid plan: err = %v, want ErrBadFaultPlan", err)
	}
	if err := Validate(Approximate, 64, WithFaults(FaultPlan{Bursts: []FaultBurst{{At: 1, Agents: 65}}})); !errors.Is(err, ErrBadFaultPlan) {
		t.Fatalf("oversized burst: err = %v, want ErrBadFaultPlan", err)
	}
	// CorruptSearch alone is not a dynamic plan: it works with every
	// algorithm, TokenBag included.
	if _, err := NewSimulation(TokenBag, 64, WithFaults(FaultPlan{CorruptSearch: true})); err != nil {
		t.Fatalf("CorruptSearch-only plan on TokenBag: %v", err)
	}
}

// TestFaultRecoveryInstrumentation pins the recovery-time measurements
// on a stable hybrid: the convergence-timed adversary strikes once, the
// error flag is raised (ErrorLatency ≥ 0), the run re-converges, and
// the observer stream carries the Errored transition.
func TestFaultRecoveryInstrumentation(t *testing.T) {
	// Spec-chosen targets (fresh init states) genuinely damage a
	// converged configuration; random occupied codes would mostly land
	// the victims back in converged states.
	plan := FaultPlan{Seed: 17, Adversary: AdversaryConvergence, AdversaryAgents: 64}
	var sawErrored bool
	s, err := NewSimulation(StableCountExact, 128, WithSeed(4), WithFaults(plan),
		WithObserver(func(snap Snapshot) {
			if snap.Errored {
				sawErrored = true
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunToConvergence()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("run did not re-converge after the adversary strike")
	}
	st := s.Stats()
	if st.FaultEvents != 1 || st.Corrupted != 64 {
		t.Fatalf("adversary strike misapplied: %+v", st)
	}
	if st.Reconvergences != 1 || st.ReconvergeTotal <= 0 {
		t.Fatalf("recovery window not recorded: %+v", st)
	}
	if st.ErrorLatency < 0 {
		t.Fatalf("stable hybrid never raised its error flag: %+v", st)
	}
	if !sawErrored {
		t.Fatal("observer stream never reported Errored")
	}
}
