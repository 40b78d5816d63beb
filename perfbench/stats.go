package main

import (
	"math"
	"slices"
	"sort"
	"time"

	"muaa/internal/trace"
)

// missed is the latency recorded for an op that failed or was refused: it
// sorts above every real latency, so it counts as missing any limit.
var missed = math.Inf(1)

// percentile returns the q-quantile (0 < q ≤ 1) of samples by the
// nearest-rank rule: the smallest value with at least q·n samples at or
// below it. Failed ops enter as +Inf (missed), so they push every percentile
// up and a percentile that lands on one is +Inf. An empty input gives NaN.
// samples is sorted in place.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q*float64(len(samples)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(samples) {
		rank = len(samples) - 1
	}
	return samples[rank]
}

// median is the middle value (mean of the two middle ones for an even
// count), NaN for an empty input. vals is sorted in place.
func median(vals []float64) float64 {
	n := len(vals)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// least and most are the smallest and largest value (NaN for none).
func least(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	return slices.Min(vals)
}

func most(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	return slices.Max(vals)
}

// span is one timed interval on the benchmark's clock, in nanoseconds since
// the run's time base.
type span struct {
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// selfTime is a span's duration minus the part of it that its children
// cover. Children are clipped to the parent and overlapping children are
// counted once, so the result is never negative and never exceeds the
// parent's duration.
func selfTime(parent span, children ...span) int64 {
	clipped := make([]span, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur span
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.dur()
	}
	return parent.dur() - covered
}

// traceIDFor is the W3C trace id the benchmark sends with request seq: a
// fixed tag in the high half, seq+1 in the low half (the all-zero id is
// invalid). seqOf inverts it.
func traceIDFor(seq int) trace.TraceID {
	var id trace.TraceID
	copy(id[:8], "perfbnch")
	v := uint64(seq) + 1
	for i := 15; i >= 8; i-- {
		id[i] = byte(v)
		v >>= 8
	}
	return id
}

// seqOf returns the request seq encoded by traceIDFor, or -1 for an id the
// benchmark did not mint.
func seqOf(id trace.TraceID) int {
	if string(id[:8]) != "perfbnch" {
		return -1
	}
	var v uint64
	for i := 8; i < 16; i++ {
		v = v<<8 | uint64(id[i])
	}
	if v == 0 {
		return -1
	}
	return int(v - 1)
}

// joinTraces indexes the broker's recorded arrival traces by the request
// seq carried in their trace id; traces with foreign ids are ignored. When
// a trace id appears twice the later one in the input wins.
func joinTraces(traces []*trace.Trace, n int) []*trace.Trace {
	out := make([]*trace.Trace, n)
	for _, t := range traces {
		if s := seqOf(t.TraceID); s >= 0 && s < n {
			out[s] = t
		}
	}
	return out
}

// brokerSpan places a recorded broker trace on the benchmark's clock.
func brokerSpan(t *trace.Trace, base time.Time) span {
	s := int64(t.Start.Sub(base))
	return span{start: s, end: s + int64(t.Duration)}
}
