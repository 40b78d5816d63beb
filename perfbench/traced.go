package main

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"muaa/internal/broker"
	"muaa/internal/obs"
	"muaa/internal/trace"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

// spanLog keeps one span per request seq. Server goroutines write it, the
// benchmark reads it after the run, hence the atomics.
type spanLog struct {
	start, end []atomic.Int64
}

func newSpanLog(n int) *spanLog {
	return &spanLog{start: make([]atomic.Int64, n), end: make([]atomic.Int64, n)}
}

func (l *spanLog) get(seq int) (span, bool) {
	s := span{start: l.start[seq].Load(), end: l.end[seq].Load()}
	return s, s.end != 0
}

// tracedStack is the serving stack muaa-serve assembles — broker.New with
// muaa-serve's default Config, broker.NewAPI, its outer mux and
// trace.Middleware — served in-process on a loopback listener. A traced
// stack keeps every broker arrival trace in a recorder large enough for
// every request and adds the benchmark's own spans around the middleware
// and around API.ServeHTTP; a plain one has muaa-serve's default recorder
// and no benchmark span. Neither adds tracing inside the program.
type tracedStack struct {
	b        *broker.Broker
	api      *broker.API
	rec      *trace.Recorder
	srv      *http.Server
	addr     string
	base     time.Time
	mwSpans  *spanLog // around trace.Middleware; nil on a plain stack
	apiSpans *spanLog // around API.ServeHTTP; nil on a plain stack
	logf     *os.File
	served   chan struct{}
}

func newTracedStack(dir string, durable, traced bool, camps []workload.BrokerCampaign, nreq int) (*tracedStack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	logger := slog.New(slog.NewJSONHandler(logf, nil))
	st := &tracedStack{
		// muaa-serve's -trace-capacity and -trace-slow defaults.
		rec:    trace.NewRecorder(trace.RecorderOptions{Capacity: 256, SlowThreshold: 25 * time.Millisecond}),
		base:   time.Now(),
		logf:   logf,
		served: make(chan struct{}),
	}
	if traced {
		st.rec = trace.NewRecorder(trace.RecorderOptions{Capacity: 2 * nreq, KeepCapacity: 2 * nreq})
		st.mwSpans, st.apiSpans = newSpanLog(nreq), newSpanLog(nreq)
	}
	reg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(reg)
	cfg := serveConfig()
	cfg.Metrics, cfg.Tracer, cfg.Logger = reg, st.rec, logger
	// The end-to-end figures exclude the periodic audit recompute (see
	// auditAt), and audit.recompute_ms times it on its own, so its ticker
	// stays out of the replay.
	cfg.AuditEvery = time.Hour
	if durable {
		cfg.DataDir = filepath.Join(dir, "data")
	}
	if st.b, err = broker.New(cfg); err != nil {
		logf.Close()
		return nil, err
	}
	for i := range camps {
		if _, err := st.b.RegisterCampaignSpec(campaignSpec(&camps[i])); err != nil {
			st.b.Close()
			logf.Close()
			return nil, err
		}
	}
	st.api = broker.NewAPI(st.b)
	mux := http.NewServeMux()
	mux.Handle("/", st.timed(st.apiSpans, st.api))
	st.srv = &http.Server{
		Handler:           st.timed(st.mwSpans, trace.Middleware(mux, logger, st.rec)),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.b.Close()
		logf.Close()
		return nil, err
	}
	st.addr = ln.Addr().String()
	go func() { st.srv.Serve(ln); close(st.served) }()
	return st, nil
}

// serveConfig is the broker.Config muaa-serve builds from its default
// flags, minus the process-wide hooks (metrics, tracer, logger, data dir)
// the caller sets.
func serveConfig() broker.Config {
	return broker.Config{
		AdTypes:     workload.DefaultAdTypes(),
		WAL:         wal.Options{Sync: wal.SyncOnFlush, Retain: true},
		AuditWindow: 4096,
		AuditEvery:  15 * time.Second,
		Funnel:      broker.FunnelConfig{Enabled: true},
	}
}

// timed wraps h with a span recorded under the request's seq, read from
// the traceparent header the benchmark sent; with no span log it returns h.
func (st *tracedStack) timed(l *spanLog, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := int64(time.Since(st.base))
		h.ServeHTTP(w, r)
		end := int64(time.Since(st.base))
		tid, _, ok := trace.ParseTraceparent(r.Header.Get("traceparent"))
		if seq := seqOf(tid); ok && seq >= 0 && seq < len(l.start) {
			l.start[seq].Store(start)
			l.end[seq].Store(end)
		}
	})
}

func (st *tracedStack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	<-st.served
	if cerr := st.b.Close(); err == nil {
		err = cerr
	}
	st.logf.Close()
	return err
}

// layerSplit is the per-request self time of each layer, averaged over the
// arrival requests of a traced phase, plus the broker's stage spans and
// scan counts joined by trace id.
type layerSplit struct {
	requests, arrivals    int
	net, trc, api, root   float64 // µs per request
	stages                [trace.NumStages]float64
	gathered, offered     float64 // totals
	reqBytes, respBytes   float64 // per arrival request
	missingSpans, missing int
}

// split computes the layer self times of the arrival requests of phs.
func (st *tracedStack) split(ops []op, phs []phase) (layerSplit, error) {
	var ls layerSplit
	traces := joinTraces(st.rec.Snapshot(trace.Filter{}), len(ops))
	for _, ph := range phs {
		off := int64(ph.start.Sub(st.base))
		for i := range ph.samples {
			s := &ph.samples[i]
			if s.failed || (s.kind != opArrival && s.kind != opBatch) {
				continue
			}
			seq := int(s.op)
			mw, ok1 := st.mwSpans.get(seq)
			api, ok2 := st.apiSpans.get(seq)
			t := traces[seq]
			if !ok1 || !ok2 {
				ls.missingSpans++
				continue
			}
			if t == nil || !t.Staged {
				ls.missing++
				continue
			}
			client := span{start: off + s.sent, end: off + s.done}
			root := brokerSpan(t, st.base)
			ls.requests++
			ls.arrivals += len(ops[seq].arrivals)
			ls.net += float64(selfTime(client, mw))
			ls.trc += float64(selfTime(mw, api))
			ls.api += float64(selfTime(api, root))
			ls.root += float64(t.Duration)
			for k := range ls.stages {
				ls.stages[k] += float64(t.Stages[k])
			}
			ls.gathered += float64(t.Scan.Gathered)
			ls.offered += float64(t.Scan.Offered)
			ls.reqBytes += float64(len(ops[seq].req) - bytes.Index(ops[seq].req, []byte("\r\n\r\n")) - 4)
			ls.respBytes += float64(len(s.body))
		}
	}
	if ls.requests == 0 || ls.missing+ls.missingSpans > ls.requests/100 {
		return ls, fmt.Errorf("traced run joined %d arrival requests; %d had no broker trace, %d no benchmark span",
			ls.requests, ls.missing, ls.missingSpans)
	}
	n := float64(ls.requests)
	for _, v := range []*float64{&ls.net, &ls.trc, &ls.api, &ls.root} {
		*v /= n * 1e3
	}
	for k := range ls.stages {
		ls.stages[k] /= n * 1e3
	}
	ls.reqBytes /= n
	ls.respBytes /= n
	return ls, nil
}

// arm is one stack of the traced replay with the client side that drives
// it.
type arm struct {
	st     *tracedStack
	conns  []*conn
	d      *generator
	l      *ledger
	phases []phase
	lat    []float64
}

func (b *bench) newArm(dir string, traced bool) (*arm, error) {
	st, err := newTracedStack(dir, b.w.durable, traced, b.camps, len(b.ops))
	if err != nil {
		return nil, err
	}
	a := &arm{st: st, l: newLedger(len(b.camps))}
	for i := 0; i < runtime.NumCPU(); i++ {
		c, err := dial(st.addr)
		if err != nil {
			a.close()
			return nil, err
		}
		a.conns = append(a.conns, c)
	}
	a.d = &generator{conns: a.conns, ops: b.ops, pool: poolFor(b.camps), statsReq: wireRequest("GET", "/v1/stats", nil, -1)}
	return a, nil
}

func (a *arm) close() {
	for _, c := range a.conns {
		c.close()
	}
	a.st.close()
}

// segments is how many slices the traced replay's open loop is cut into;
// the two arms take turns on each slice.
const segments = 6

// tracedLayers replays the workload's open-loop phase through two
// in-process stacks: a traced one, which gives the layer split, and a
// plain one. The arms take turns on each of the phase's segments,
// alternating which goes first, and the difference of their p50s is the
// tracing overhead. It also reports the replays that need the traced
// stack's broker.
func (b *bench) tracedLayers() error {
	rep := b.rep
	tr, err := b.newArm(filepath.Join(b.tmp, "traced"), true)
	if err != nil {
		return err
	}
	defer tr.close()
	plain, err := b.newArm(filepath.Join(b.tmp, "plain"), false)
	if err != nil {
		return err
	}
	defer plain.close()
	for _, a := range []*arm{tr, plain} {
		warm := a.d.openLoop(b.openN, warmCount(b.w.rate, minWarm), b.w.rate)
		if _, err := checkPhase(b.ops, warm.samples, int64(warm.elapsed), a.l); err != nil {
			rep.fail("traced warm-up: %v", err)
		}
	}
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	per := b.openN / segments
	for k := 0; k < segments; k++ {
		order := []*arm{tr, plain}
		if k%2 == 1 {
			order = []*arm{plain, tr}
		}
		for _, a := range order {
			a.phases = append(a.phases, a.d.openLoop(k*per, per, b.w.rate))
		}
	}
	debug.SetGCPercent(gc)
	ls, err := tr.st.split(b.ops, tr.phases)
	if err != nil {
		return err
	}
	for _, a := range []*arm{tr, plain} {
		for _, ph := range a.phases {
			a.lat = append(a.lat, latencies(ph.samples)...)
			t, err := checkPhase(b.ops, ph.samples, int64(ph.elapsed), a.l)
			if err != nil {
				rep.fail("traced replay: %v", err)
			}
			rep.count(t)
		}
		if err := checkLedger(a.conns[0], b.camps, a.l); err != nil {
			rep.fail("traced replay ledger: %v", err)
		}
	}
	tracedP50, plainP50 := percentile(tr.lat, 0.5), percentile(plain.lat, 0.5)
	rep.note("traced replay: %d arrival requests joined to broker traces by trace id; p50 %.3f ms traced vs %.3f ms plain over %d requests each",
		ls.requests, tracedP50, plainP50, len(tr.lat))
	rep.add("net.self_us", ls.net, "us")
	rep.add("trace.self_us", ls.trc, "us")
	rep.add("api.self_us", ls.api, "us")
	rep.add("api.req_bytes", ls.reqBytes, "B")
	rep.add("api.resp_bytes", ls.respBytes, "B")
	rep.add("broker.root_us", ls.root, "us")
	for k, name := range []string{"broker.lock_wait_us", "broker.gather_us", "broker.scan_us", "broker.commit_us"} {
		rep.add(name, ls.stages[k], "us")
	}
	rep.add("broker.gathered_per_arrival", ls.gathered/float64(ls.arrivals), "count")
	rep.add("broker.offered_ratio", ls.offered/ls.gathered, "ratio")
	rep.add("overhead.lat_p50_ms", tracedP50-plainP50, "ms")

	conv, err := convertTimes(tr.st.b, tr.d.pool, 500)
	if err != nil {
		return err
	}
	rep.add("broker.convert_us", conv, "us")
	start := time.Now()
	if _, err := tr.st.b.AuditNow(); err != nil {
		return err
	}
	rep.add("audit.recompute_ms", float64(time.Since(start))/1e6, "ms")
	allocs, err := apiAllocs(tr.st.api, b.ops, 500)
	if err != nil {
		return err
	}
	rep.add("api.allocs_per_req", allocs, "count")
	return nil
}
