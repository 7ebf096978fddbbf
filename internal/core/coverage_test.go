package core

import (
	"testing"

	"popcount/internal/clock"
	"popcount/internal/junta"
	"popcount/internal/rng"
	"popcount/internal/sim"
)

func TestCountExactOverflowGuard(t *testing.T) {
	spec := NewCountExactSpec(Config{N: 4})
	p := spec.rule
	w := p.initAgent()
	w.led.Done = true
	w.apxDone = true
	w.refEntered = true
	w.k = 30
	w.l = int64(1) << 60
	w.clk = clock.State{Val: uint16(2 * int(p.clk.M)), FirstTick: true} // rp = 2
	p.refBoundary(&w)
	if !w.overflow {
		t.Fatal("overflow not flagged")
	}
	view := mapView{spec.in.Code(canonExact(w)): 1, spec.in.Code(canonExact(p.initAgent())): 3}
	if !exactOverflowed(spec, view) {
		t.Fatal("overflow not reported by the configuration")
	}
}

func TestApproximateReinitFreshClimber(t *testing.T) {
	p := newApproxRule(Config{N: 4})
	w, q := p.initAgent(), p.initAgent()
	w.jnt.Level = 3 // w climbed to 3
	w.k = 5
	w.searchDone = true
	w.clk.Val = 99
	// Partner was below w's new level: w is a fresh climber and starts a
	// cold clock.
	p.reinit(&w, &q, 2)
	if w.clk.Val != 0 || w.k != -1 || w.searchDone || !w.led.IsLeader {
		t.Fatalf("fresh-climber reinit wrong: %+v", w)
	}
}

func TestApproximateReinitAdoptsAuthorityClock(t *testing.T) {
	p := newApproxRule(Config{N: 4})
	w, q := p.initAgent(), p.initAgent()
	q.clk.Val = 77
	w.jnt.Level = 3
	// Partner was already at w's new level: adopt its clock.
	p.reinit(&w, &q, 3)
	if w.clk.Val != 77 {
		t.Fatalf("authority clock not adopted: %+v", w.clk)
	}
}

func TestStableApproximateRaiseIdempotent(t *testing.T) {
	p := newStableApproxRule(Config{N: 4})
	w := p.initAgent()
	p.raise(&w)
	if !w.errFlag || w.bkInstance != 1 {
		t.Fatalf("raise did not initialize the backup instance: %+v", w)
	}
	w.bk.K = 3  // simulate progress in the fresh instance
	p.raise(&w) // second raise must not reset it
	if w.bk.K != 3 {
		t.Fatal("second raise reset the backup instance")
	}
}

func TestStableApproximateTwoLeadersDetected(t *testing.T) {
	p := newStableApproxRule(Config{N: 4})
	a, b := p.initAgent(), p.initAgent()
	for _, w := range []*stableAgent{&a, &b} {
		w.led.Done = true
		w.led.IsLeader = true
		w.jnt = junta.State{Level: 1}
	}
	p.stepPair(&a, &b, rng.New(1))
	if !a.errFlag || !b.errFlag {
		t.Fatal("two concluded leaders meeting did not raise the error flag")
	}
}

func TestStableApproximateEDPhaseDesyncDetected(t *testing.T) {
	p := newStableApproxRule(Config{N: 4})
	a, b := p.initAgent(), p.initAgent()
	for _, w := range []*stableAgent{&a, &b} {
		w.led.Done = true
		w.led.IsLeader = false
		w.searchDone = true
	}
	a.edPhase = 0
	b.edPhase = 3
	p.edStep(&a, &b)
	if !a.errFlag || !b.errFlag {
		t.Fatal("phase divergence of 3 not detected")
	}
}

func TestStableApproximateEDBalancingErrorDetected(t *testing.T) {
	p := newStableApproxRule(Config{N: 4})
	a, b := p.initAgent(), p.initAgent()
	for _, w := range []*stableAgent{&a, &b} {
		w.led.Done = true
		w.led.IsLeader = false
		w.searchDone = true
		w.edPhase = 4
	}
	a.l, b.l = 1, 1 // below the minimum of 3 → k was too small
	p.edStep(&a, &b)
	if !a.errFlag {
		t.Fatal("under-load in phase 4 not detected")
	}
}

func TestStableApproximateEDPileTooLargeDetected(t *testing.T) {
	p := newStableApproxRule(Config{N: 4})
	w, q := p.initAgent(), p.initAgent()
	w.led.Done = true
	w.led.IsLeader = false
	w.searchDone = true
	w.edPhase = 2
	w.k = 3 // a pile of 8 tokens survived the powers-of-two balancing
	w.clk.FirstTick = true
	p.edBoundary(&w, &q)
	if !w.errFlag {
		t.Fatal("unsplit pile in phase 2 not detected")
	}
}

func TestStableCountExactKDisagreementDetected(t *testing.T) {
	p := newStableExactRule(Config{N: 4})
	a, b := p.initAgent(), p.initAgent()
	for _, w := range []*stableExactAgent{&a, &b} {
		w.led.Done = true
		w.apxDone = true
		w.refEntered = true
		w.refMultiplied = true
	}
	a.k, b.k = 9, 10
	p.refineStep(&a, &b)
	if !a.errFlag || !b.errFlag {
		t.Fatal("k disagreement after multiplication not detected")
	}
}

func TestStableCountExactUnderloadDetected(t *testing.T) {
	p := newStableExactRule(Config{N: 4})
	w := p.initAgent()
	w.led.Done = true
	w.led.IsLeader = false
	w.apxDone = true
	w.refEntered = true
	w.k = 5
	w.l = 10 // below 2^5 − 1.5
	w.clk = clock.State{Val: uint16(2 * int(p.clk.M)), FirstTick: true}
	p.refBoundary(&w)
	if !w.errFlag {
		t.Fatal("under-load before multiplication not detected")
	}
}

func TestStableProtocolsUnderPerturbedScheduler(t *testing.T) {
	// The stable variants must stay correct even off-model (their whole
	// point): run under the matching scheduler.
	n := 300
	p, res := runAgent(t, NewStableCountExactSpec(Config{N: n}, false).Spec, sim.Config{
		Seed:            3,
		Scheduler:       sim.NewMatchingScheduler(),
		MaxInteractions: int64(n) * int64(n) * 800,
	})
	if !res.Converged || p.Output(0) != int64(n) {
		t.Fatalf("stable exact under matching scheduler: conv=%v out=%d (errored=%v)",
			res.Converged, p.Output(0), p.Errored())
	}
}

func TestApproximateLeadersCountsContenders(t *testing.T) {
	spec := NewApproximateSpec(Config{N: 5})
	p := sim.NewSpecAgent(spec.Spec)
	if l := approxLeaders(spec, p.View()); l != 5 {
		t.Fatalf("initially %d leaders, want 5", l)
	}
}
