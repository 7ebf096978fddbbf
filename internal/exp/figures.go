package exp

import (
	"fmt"
	"strings"

	"popcount/internal/baseline"
	"popcount/internal/core"
	"popcount/internal/epidemic"
	"popcount/internal/leader"
	"popcount/internal/rng"
	"popcount/internal/sim"
)

// Series is a time series ("figure" data): one x column (interactions)
// and one or more named y columns, rendered as CSV. The paper has no
// printed figures, so these regenerate the curves its analysis describes
// — the logistic epidemic wavefront, the leader-count decay, the
// doubling staircase of the search, and the settling of the exact count.
type Series struct {
	ID      string
	Title   string
	Headers []string // y column names
	T       []int64
	Y       [][]float64 // Y[i] is the row of y values at T[i]
}

// CSV renders the series with an "interactions" x column.
func (s Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", s.ID, s.Title)
	b.WriteString("interactions")
	for _, h := range s.Headers {
		b.WriteString(",")
		b.WriteString(h)
	}
	b.WriteByte('\n')
	for i, t := range s.T {
		fmt.Fprintf(&b, "%d", t)
		for _, y := range s.Y[i] {
			fmt.Fprintf(&b, ",%g", y)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// sample runs protocol p for maxT interactions, recording probe values
// every step interactions.
func sample(p sim.Protocol, seed uint64, maxT, step int64, headers []string,
	probe func() []float64) Series {
	s := Series{Headers: headers}
	r := rng.New(seed)
	n := p.N()
	for t := int64(0); t < maxT; t += step {
		for i := int64(0); i < step; i++ {
			u, v := r.Pair(n)
			p.Interact(u, v, r)
		}
		s.T = append(s.T, t+step)
		s.Y = append(s.Y, probe())
	}
	return s
}

// F1EpidemicCurve regenerates the one-way epidemic's informed-count
// curve (the logistic wavefront behind Lemma 3).
func F1EpidemicCurve(o Options) Series {
	o = o.withDefaults()
	n := 1 << 12
	if len(o.Sizes) > 0 {
		n = o.Sizes[0]
	}
	spec := epidemic.NewSingleSourceSpec(n, true)
	p := sim.NewSpecAgent(spec)
	maxCode := epidemic.MaxCode(spec)
	s := sample(p, o.Seed, int64(3*nLogN(n)), int64(n)/4,
		[]string{"informed", "informed_fraction"},
		func() []float64 {
			informed := float64(p.StateCount(maxCode))
			return []float64{informed, informed / float64(n)}
		})
	s.ID, s.Title = "F1", fmt.Sprintf("one-way epidemic wavefront, n=%d (Lemma 3)", n)
	return s
}

// F2LeaderDecay regenerates the contender-count decay of both leader
// elections (the halving behind Lemmas 6 and 7).
func F2LeaderDecay(o Options) Series {
	o = o.withDefaults()
	n := 1 << 12
	if len(o.Sizes) > 0 {
		n = o.Sizes[0]
	}
	j := 2 * sim.Log2Ceil(n)
	slow := leader.NewProtocol(n, 32, j)
	fast := leader.NewFastProtocol(n, 32, j, leader.DefaultFastRounds)
	rSlow := rng.New(o.Seed)
	rFast := rng.New(o.Seed + 1)
	s := Series{
		ID:      "F2",
		Title:   fmt.Sprintf("leader contender decay, n=%d (Lemmas 6–7)", n),
		Headers: []string{"slow_leaders", "fast_leaders"},
	}
	step := int64(n)
	for t := int64(0); t < int64(60*nLogN(n)); t += step {
		for i := int64(0); i < step; i++ {
			u, v := rSlow.Pair(n)
			slow.Interact(u, v, rSlow)
			u, v = rFast.Pair(n)
			fast.Interact(u, v, rFast)
		}
		s.T = append(s.T, t+step)
		s.Y = append(s.Y, []float64{float64(slow.Leaders()), float64(fast.Leaders())})
	}
	return s
}

// F3EstimateTrajectory regenerates the Search Protocol's doubling
// staircase: agent 0's population estimate over time in protocol
// Approximate (Lemma 9 / Theorem 1.1).
func F3EstimateTrajectory(o Options) Series {
	o = o.withDefaults()
	n := 1 << 12
	if len(o.Sizes) > 0 {
		n = o.Sizes[0]
	}
	p := sim.NewSpecAgent(core.NewApproximateSpec(core.Config{N: n}).Spec)
	s := sample(p, o.Seed, int64(200*nLog2N(n)/10), int64(4*n),
		[]string{"agent0_estimate", "true_n"},
		func() []float64 {
			return []float64{float64(approxEstimate(p.Output(0))), float64(n)}
		})
	s.ID, s.Title = "F3", fmt.Sprintf("search staircase of protocol Approximate, n=%d", n)
	return s
}

// F4ExactSettling regenerates the settling of CountExact's output next
// to the token-bag baseline's slow climb (Theorem 2 vs the Θ(n²)
// baseline).
func F4ExactSettling(o Options) Series {
	o = o.withDefaults()
	n := 1 << 11
	if len(o.Sizes) > 0 {
		n = o.Sizes[0]
	}
	ce := sim.NewSpecAgent(core.NewCountExactSpec(core.Config{N: n}).Spec)
	bag := baseline.NewTokenBag(n)
	rCE := rng.New(o.Seed)
	rBag := rng.New(o.Seed + 1)
	s := Series{
		ID:      "F4",
		Title:   fmt.Sprintf("output settling: CountExact vs token bags, n=%d", n),
		Headers: []string{"countexact_agent0", "tokenbag_agent0", "true_n"},
	}
	step := int64(2 * n)
	for t := int64(0); t < int64(n)*int64(n); t += step {
		for i := int64(0); i < step; i++ {
			u, v := rCE.Pair(n)
			ce.Interact(u, v, rCE)
			u, v = rBag.Pair(n)
			bag.Interact(u, v, rBag)
		}
		s.T = append(s.T, t+step)
		s.Y = append(s.Y, []float64{
			float64(ce.Output(0)), float64(bag.Output(0)), float64(n),
		})
		if ce.Converged() && bag.Converged() {
			break
		}
	}
	return s
}

// Figures returns all figure series.
func Figures(o Options) []Series {
	return []Series{
		F1EpidemicCurve(o),
		F2LeaderDecay(o),
		F3EstimateTrajectory(o),
		F4ExactSettling(o),
	}
}
