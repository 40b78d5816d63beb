package main

import (
	"math"
	"testing"
	"time"

	"muaa/internal/trace"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.1, 1}, {1, 10}} {
		if got := percentile(append([]float64(nil), s...), c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
}

func TestPercentileCountsFailuresAsMisses(t *testing.T) {
	// 98 fast ops and 2 failures: p99 lands on a failure, p50 does not.
	s := make([]float64, 0, 100)
	for i := 0; i < 98; i++ {
		s = append(s, 1)
	}
	s = append(s, missed, missed)
	if got := percentile(append([]float64(nil), s...), 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf (a miss)", got)
	}
	if got := percentile(append([]float64(nil), s...), 0.5); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	// One failure among 1000 ops still moves p99 no further than a real
	// latency, but it is counted in the sample base.
	s = s[:0]
	for i := 0; i < 999; i++ {
		s = append(s, float64(i))
	}
	s = append(s, missed)
	if got := percentile(s, 0.99); got != 989 {
		t.Errorf("p99 = %v, want 989", got)
	}
	f := sample{failed: true, due: 0, done: 5e6}
	if !math.IsInf(f.latency(), 1) {
		t.Errorf("failed sample latency = %v, want +Inf", f.latency())
	}
	ok := sample{due: 1e6, sent: 2e6, done: 4e6}
	if got := ok.latency(); got != 3 {
		t.Errorf("latency from due = %v ms, want 3", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestRoundSelection(t *testing.T) {
	quiet := &round{steal: 0.3}
	stolen := &round{steal: 12}
	late := &round{steal: 0, late: true}
	behind := &round{steal: 0.2, behind: true}
	atLimit := &round{steal: stealMax}
	got := clean([]*round{quiet, stolen, late, behind, atLimit})
	if len(got) != 2 || got[0] != quiet || got[1] != atLimit {
		t.Errorf("clean kept %v, want the quiet and at-limit rounds", got)
	}
	if got := usable([]*round{quiet, stolen, late, behind}); len(got) != 1 || got[0] != quiet {
		t.Errorf("usable kept %v, want only the quiet round", got)
	}
	// Steal everywhere: every round that was on time is used.
	if got := usable([]*round{stolen, late, behind}); len(got) != 1 || got[0] != stolen {
		t.Errorf("usable with steal everywhere kept %v, want the stolen round", got)
	}
	if got := usable([]*round{late, behind}); len(got) != 0 {
		t.Errorf("usable kept %v of rounds that were all late or behind", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{start: 100, end: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one nested child", []span{{120, 150}}, 70},
		{"disjoint children", []span{{110, 120}, {150, 180}}, 60},
		{"overlapping children count once", []span{{110, 150}, {140, 160}}, 50},
		{"child clipped to parent", []span{{50, 130}, {190, 300}}, 60},
		{"child outside parent", []span{{0, 90}, {210, 300}}, 100},
		{"child covers parent", []span{{0, 300}}, 0},
		{"unsorted children", []span{{170, 180}, {110, 120}}, 80},
	} {
		if got := selfTime(parent, c.children...); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	for _, seq := range []int{0, 1, 255, 256, 1 << 20, 1<<40 + 7} {
		if got := seqOf(traceIDFor(seq)); got != seq {
			t.Errorf("seqOf(traceIDFor(%d)) = %d", seq, got)
		}
	}
	if got := seqOf(trace.NewTraceID()); got != -1 {
		t.Errorf("foreign trace id mapped to seq %d", got)
	}
	if got := seqOf(trace.TraceID{}); got != -1 {
		t.Errorf("zero trace id mapped to seq %d", got)
	}
}

func TestWireTraceparentParses(t *testing.T) {
	req := string(wireRequest("POST", "/v1/arrivals", []byte("{}"), 42))
	const key = "Traceparent: "
	i := len(key) + indexOf(req, key)
	tid, _, ok := trace.ParseTraceparent(req[i : i+55])
	if !ok || seqOf(tid) != 42 {
		t.Fatalf("traceparent in %q does not carry seq 42", req)
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestJoinTraces(t *testing.T) {
	base := time.Now()
	a := &trace.Trace{TraceID: traceIDFor(0), Start: base.Add(10), Duration: 5}
	b := &trace.Trace{TraceID: traceIDFor(2), Start: base.Add(20), Duration: 7}
	foreign := &trace.Trace{TraceID: trace.NewTraceID()}
	outOfRange := &trace.Trace{TraceID: traceIDFor(9)}
	got := joinTraces([]*trace.Trace{b, foreign, a, outOfRange}, 3)
	if got[0] != a || got[1] != nil || got[2] != b {
		t.Fatalf("joinTraces = %v, want [a nil b]", got)
	}
	if s := brokerSpan(a, base); s != (span{start: 10, end: 15}) {
		t.Errorf("brokerSpan = %+v, want {10 15}", s)
	}
}

func TestBudgetLiveness(t *testing.T) {
	// Half the arrivals of each tenth get two offers, half none (mean 1,
	// variance 1); the last tenth gets 20 % fewer. That is within the
	// sampling error of 400 arrivals per tenth, so the budgets count as live.
	noisy := phaseTally{firstArr: 400, firstOffers: 400, firstSq: 800, lastArr: 400, lastOffers: 320, lastSq: 640}
	if r := noisy.offersTailRatio(); math.Abs(r-0.8) > 1e-12 {
		t.Fatalf("ratio = %v, want 0.8", r)
	}
	if se := noisy.offersTailSE(); math.Abs(se-0.0632) > 1e-3 {
		t.Errorf("standard error = %v, want about 0.0632", se)
	}
	if !noisy.live() {
		t.Error("a drop within the sampling error failed the liveness band")
	}
	// Budgets run dry: no offers at all in the last tenth.
	dry := phaseTally{firstArr: 400, firstOffers: 800, firstSq: 1600, lastArr: 400}
	if dry.live() {
		t.Error("a phase whose last tenth got no offers passed the liveness band")
	}
	// No arrivals in a tenth: the band cannot be judged and fails.
	if (&phaseTally{firstArr: 400, firstOffers: 400, firstSq: 400}).live() {
		t.Error("a phase with an empty last tenth passed the liveness band")
	}
}
