package core

import (
	"testing"

	"popcount/internal/sim"
)

// runAgent runs spec's agent form under cfg and returns the finished
// agent with its result.
func runAgent(t *testing.T, spec *sim.Spec, cfg sim.Config) (*sim.SpecAgent, sim.Result) {
	t.Helper()
	p := sim.NewSpecAgent(spec)
	res, err := sim.Run(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// countStates returns the number of agents of v whose decoded state
// satisfies pred.
func countStates[S comparable](in *sim.Interner[S], v sim.ConfigView, pred func(S) bool) int64 {
	var c int64
	v.ForEach(func(code uint64, cnt int64) {
		if pred(in.State(code)) {
			c += cnt
		}
	})
	return c
}

// mapView is a ConfigView over a fixed code → count map.
type mapView map[uint64]int64

func (m mapView) N() int64 {
	var n int64
	for _, c := range m {
		n += c
	}
	return n
}
func (m mapView) Count(code uint64) int64 { return m[code] }
func (m mapView) ForEach(f func(code uint64, count int64)) {
	for code, c := range m {
		f(code, c)
	}
}
