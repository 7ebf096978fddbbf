package core

import (
	"testing"

	"popcount/internal/clock"
	"popcount/internal/junta"
	"popcount/internal/rng"
)

// mkApprox builds the rule of protocol Approximate for unit-testing
// stage functions directly on synthetic agent states.
func mkApprox(t *testing.T) *approxRule {
	t.Helper()
	p := newApproxRule(Config{N: 8})
	return &p
}

func TestSearchLeaderInfusion(t *testing.T) {
	p := mkApprox(t)
	c := p.clk
	leaderAgent := approxAgent{
		jnt: junta.InitState(),
		clk: clock.State{Val: uint16(1 * int(c.M)), FirstTick: true}, // phase index 1
		led: p.elect.Init(),
		k:   5,
	}
	leaderAgent.led.Done = true
	follower := approxAgent{jnt: junta.InitState(), clk: c.Init(), led: p.elect.Init(), k: -1}
	follower.led.Done = true
	follower.led.IsLeader = false

	p.searchLeaderActions(&leaderAgent, &follower)
	if follower.k != 5 {
		t.Fatalf("infusion failed: follower k = %d, want 5", follower.k)
	}
}

func TestSearchLeaderDecisionContinue(t *testing.T) {
	p := mkApprox(t)
	c := p.clk
	leaderAgent := approxAgent{
		clk: clock.State{Val: uint16(4 * int(c.M)), FirstTick: true}, // phase index 4
		led: p.elect.Init(),
		k:   3,
	}
	leaderAgent.led.Done = true
	follower := approxAgent{led: p.elect.Init(), k: 0} // max load 1 → continue
	follower.led.IsLeader = false
	follower.led.Done = true

	p.searchLeaderActions(&leaderAgent, &follower)
	if leaderAgent.k != 4 || leaderAgent.searchDone {
		t.Fatalf("decision should continue search: k=%d done=%v", leaderAgent.k, leaderAgent.searchDone)
	}
}

func TestSearchLeaderDecisionStop(t *testing.T) {
	p := mkApprox(t)
	c := p.clk
	leaderAgent := approxAgent{
		clk: clock.State{Val: uint16(4 * int(c.M)), FirstTick: true},
		led: p.elect.Init(),
		k:   9,
	}
	leaderAgent.led.Done = true
	follower := approxAgent{led: p.elect.Init(), k: 1} // some agent had load ≥ 2
	follower.led.IsLeader = false
	follower.led.Done = true

	p.searchLeaderActions(&leaderAgent, &follower)
	if !leaderAgent.searchDone || leaderAgent.k != 9 {
		t.Fatalf("decision should stop: k=%d done=%v", leaderAgent.k, leaderAgent.searchDone)
	}
}

func TestSearchLeaderNoActionWithoutFirstTick(t *testing.T) {
	p := mkApprox(t)
	c := p.clk
	leaderAgent := approxAgent{
		clk: clock.State{Val: uint16(4 * int(c.M)), FirstTick: false},
		led: p.elect.Init(),
		k:   3,
	}
	leaderAgent.led.Done = true
	follower := approxAgent{led: p.elect.Init(), k: 1}
	follower.led.IsLeader = false
	follower.led.Done = true

	p.searchLeaderActions(&leaderAgent, &follower)
	if leaderAgent.searchDone || leaderAgent.k != 3 {
		t.Fatal("leader acted outside its first tick")
	}
}

func TestSearchBoundaryResetsOnlyInPhase0(t *testing.T) {
	p := mkApprox(t)
	c := p.clk
	w := approxAgent{
		clk: clock.State{Val: 0, FirstTick: true}, // phase index 0
		led: p.elect.Init(),
		k:   7,
	}
	w.led.IsLeader = false
	w.led.Done = true
	p.searchBoundary(&w)
	if w.k != -1 {
		t.Fatalf("phase-0 entry did not reset k: %d", w.k)
	}

	w.k = 7
	w.clk = clock.State{Val: uint16(2 * int(c.M)), FirstTick: true} // phase 2
	p.searchBoundary(&w)
	if w.k != 7 {
		t.Fatal("reset fired outside phase 0")
	}
}

func TestSearchBoundaryLeaderKeepsK(t *testing.T) {
	p := mkApprox(t)
	w := approxAgent{
		clk: clock.State{Val: 0, FirstTick: true},
		led: p.elect.Init(),
		k:   7,
	}
	w.led.Done = true // leader (IsLeader true from Init)
	p.searchBoundary(&w)
	if w.k != 7 {
		t.Fatal("the leader's k must survive phase 0 (it is the search cursor)")
	}
}

func TestBroadcastStageInfection(t *testing.T) {
	p := newApproxRule(Config{N: 4})
	a, b := p.initAgent(), p.initAgent()
	// Hand-craft: a finished the search with k=9, b fresh.
	a.led.Done = true
	a.led.IsLeader = true
	a.searchDone = true
	a.k = 9
	b.led.Done = true
	b.led.IsLeader = false

	// Give both the same junta level so no re-initialization fires.
	a.jnt = junta.State{Level: 2}
	b.jnt = junta.State{Level: 2}

	p.stepPair(&a, &b, newTestRand())
	if !b.searchDone || b.k != 9 {
		t.Fatalf("broadcast stage did not infect: %+v", b)
	}
}

func TestCountExactApxBoundaryFirstPhase(t *testing.T) {
	p := newExactRule(Config{N: 8})
	w := exactAgent{
		jnt: junta.State{Level: 6}, // injectExp = 2^6 >> 3 = 8
		clk: clock.State{FirstTick: true},
		led: p.elect.Init(),
	}
	w.led.Done = true // leader, in the Approximation Stage
	p.apxBoundary(&w)
	if w.i != 1 {
		t.Fatalf("phase counter = %d, want 1", w.i)
	}
	if w.l != 1<<8 {
		t.Fatalf("after the first boundary the leader holds %d tokens, want 2^8", w.l)
	}
}

func TestCountExactApxBoundaryConcludes(t *testing.T) {
	p := newExactRule(Config{N: 8})
	w := exactAgent{
		jnt: junta.State{Level: 6},
		clk: clock.State{FirstTick: true},
		led: p.elect.Init(),
		i:   3,
		l:   5, // ≥ 4 → conclude
	}
	w.led.Done = true
	p.apxBoundary(&w)
	if !w.apxDone {
		t.Fatal("leader did not conclude with l ≥ 4")
	}
	// k = i·e − ⌊log₂ l⌋ = 3·8 − 2 = 22.
	if w.k != 22 {
		t.Fatalf("k = %d, want 22", w.k)
	}
	if !w.refEntered || w.l != 0 {
		t.Fatalf("refinement entry not initialized: %+v", w)
	}
}

func TestCountExactRefBoundaryInjection(t *testing.T) {
	p := newExactRule(Config{N: 8})
	c := p.clk
	w := exactAgent{
		clk: clock.State{Val: uint16(1 * int(c.M)), FirstTick: true}, // phase idx 1
		led: p.elect.Init(),
		k:   4,
	}
	w.led.Done = true
	w.apxDone = true
	w.refEntered = true
	w.refAnchor = 0 // rp = 1
	p.refBoundary(&w)
	if !w.refInjected || w.l != 256<<4 {
		t.Fatalf("injection failed: %+v", w)
	}
}

func TestCountExactRefBoundaryMultiplication(t *testing.T) {
	p := newExactRule(Config{N: 8})
	c := p.clk
	w := exactAgent{
		clk: clock.State{Val: uint16(2 * int(c.M)), FirstTick: true}, // phase idx 2
		led: p.elect.Init(),
		k:   4,
		l:   10,
	}
	w.led.Done = true
	w.led.IsLeader = false
	w.apxDone = true
	w.refEntered = true
	w.refAnchor = 0 // rp = 2
	p.refBoundary(&w)
	if !w.refMultiplied || w.l != 10<<4 {
		t.Fatalf("multiplication failed: %+v", w)
	}
	// The flag prevents a second multiplication.
	p.refBoundary(&w)
	if w.l != 10<<4 {
		t.Fatalf("load multiplied twice: %d", w.l)
	}
}

func TestRefineBalancingRespectsMultiplicationTag(t *testing.T) {
	p := newExactRule(Config{N: 8})
	a := exactAgent{led: p.elect.Init(), l: 100, refMultiplied: true}
	a.led.Done = true
	a.apxDone = true
	b := exactAgent{led: p.elect.Init(), l: 10, refMultiplied: false}
	b.led.Done = true
	b.apxDone = true
	p.refineStep(&a, &b)
	if a.l != 100 || b.l != 10 {
		t.Fatalf("tokens crossed the multiplication boundary: a=%d b=%d", a.l, b.l)
	}
	b.refMultiplied = true
	p.refineStep(&a, &b)
	if a.l != 55 || b.l != 55 {
		t.Fatalf("balancing failed between equal tags: a=%d b=%d", a.l, b.l)
	}
}

func TestCountExactOutputFormula(t *testing.T) {
	p := newExactRule(Config{N: 4})
	w := p.initAgent()
	w.refMultiplied = true
	w.k = 10
	// M = 256·2^20; with n=1000 the balanced load is ≈ 268435.
	w.l = 268435
	if got := exactStateOutput(w); got != 1000 {
		t.Fatalf("output = %d, want 1000", got)
	}
	w.l = 0
	if got := exactStateOutput(w); got != 0 {
		t.Fatalf("output with no load = %d, want 0", got)
	}
}

// newTestRand returns a deterministic generator for stage unit tests.
func newTestRand() *rng.Rand { return rng.New(1) }
