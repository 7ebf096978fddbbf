package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := func(x int) time.Duration { return time.Duration(x) * time.Millisecond }
	spans := []span{
		{Name: "trial", Start: ms(0), End: ms(100), Parent: -1},  // 0
		{Name: "setup", Start: ms(0), End: ms(10), Parent: 0},    // 1
		{Name: "run", Start: ms(10), End: ms(90), Parent: 0},     // 2
		{Name: "poll", Start: ms(20), End: ms(30), Parent: 2},    // 3: nested two deep
		{Name: "poll", Start: ms(25), End: ms(40), Parent: 2},    // 4: overlaps 3
		{Name: "poll", Start: ms(80), End: ms(95), Parent: 2},    // 5: outlives its parent
		{Name: "poll", Start: ms(50), End: ms(50), Parent: 2},    // 6: empty
		{Name: "job", Start: ms(200), End: ms(260), Parent: -1},  // 7
		{Name: "queue", Start: ms(210), End: ms(240), Parent: 7}, // 8
		{Name: "run", Start: ms(220), End: ms(250), Parent: 7},   // 9: overlaps queue
	}
	got := selfTimes(spans)
	want := []time.Duration{
		ms(100) - ms(10) - ms(80), // children setup+run tile 0..90
		ms(10),
		ms(80) - ms(20) - ms(10), // union [20,40] plus [80,90] clipped
		ms(10), ms(15), ms(15), 0,
		ms(60) - ms(40), // union of [210,240] and [220,250]
		ms(30), ms(30),
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestMergeLogsRebasesParents(t *testing.T) {
	a := &spanLog{spans: []span{{Name: "trial", Parent: -1}, {Name: "run", Parent: 0}}}
	b := &spanLog{spans: []span{{Name: "trial", Parent: -1}, {Name: "setup", Parent: 0}, {Name: "run", Parent: 0}}}
	got := mergeLogs([]*spanLog{a, b})
	parents := []int{-1, 0, -1, 2, 2}
	for i, p := range parents {
		if got[i].Parent != p {
			t.Errorf("span %d: parent %d, want %d", i, got[i].Parent, p)
		}
	}
}

func TestQuantileFailuresSortLast(t *testing.T) {
	inf := func() float64 { var z float64; return 1 / z }()
	xs := []float64{3, 1, 2, inf}
	if got := median(xs); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got != inf {
		t.Errorf("p90 %v, want +Inf (a failure lies beyond every percentile)", got)
	}
}
