package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced run. Start and End are
// offsets from the run's clock origin; Parent indexes the enclosing
// span in the same log (-1 for a root); Op is the trial or job id the
// span belongs to.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
}

// spanLog keeps spans in memory until the run ends. One log belongs to
// one goroutine (a lane), so recording takes no lock; logs are merged
// after the lanes have stopped.
type spanLog struct {
	origin time.Time
	spans  []span
}

func newSpanLog(origin time.Time) *spanLog { return &spanLog{origin: origin} }

func (l *spanLog) now() time.Duration { return time.Since(l.origin) }

// begin opens a span and returns its index.
func (l *spanLog) begin(name string, parent, op int) int {
	l.spans = append(l.spans, span{Name: name, Start: l.now(), Parent: parent, Op: op})
	return len(l.spans) - 1
}

// end closes the span opened by begin.
func (l *spanLog) end(i int) { l.spans[i].End = l.now() }

// add records a span whose bounds are already known.
func (l *spanLog) add(name string, start, end time.Duration, parent, op int) {
	l.spans = append(l.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
}

// mergeLogs concatenates lane logs into one span list, rebasing each
// log's parent indexes.
func mergeLogs(logs []*spanLog) []span {
	var out []span
	for _, l := range logs {
		base := len(out)
		for _, s := range l.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns every span's self time: its duration minus the part
// of it covered by its direct children. Children are clipped to the
// parent and overlapping children count once, so concurrent children
// (or a child that outlives its parent) never drive self time negative.
// Grandchildren are already inside their parent's interval and are not
// subtracted again.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	type iv struct{ a, b time.Duration }
	for i, s := range spans {
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered time.Duration
		var cur iv
		for j, v := range ivs {
			switch {
			case j == 0:
				cur = v
			case v.a <= cur.b:
				cur.b = max(cur.b, v.b)
			default:
				covered += cur.b - cur.a
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.b - cur.a
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// durations groups span durations, in seconds, by span name.
func durations(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], (s.End - s.Start).Seconds())
	}
	return out
}

// writeSpans writes the run record and every span as JSON lines.
func writeSpans(path string, rec runRecord, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(rec); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
