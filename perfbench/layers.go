package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"muaa/internal/broker"
	"muaa/internal/geo"
	"muaa/internal/wal"
	"muaa/internal/workload"
)

// nullWriter is a reusable http.ResponseWriter that drops the body, so an
// allocation count sees only what the handler allocates.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(int)             {}
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// apiAllocs replays up to n arrival requests straight into API.ServeHTTP on
// one goroutine and returns heap allocations per request. The requests are
// parsed beforehand, outside the count.
func apiAllocs(api *broker.API, ops []op, n int) (float64, error) {
	var reqs []*http.Request
	for i := range ops {
		if len(reqs) == n {
			break
		}
		if ops[i].kind != opArrival && ops[i].kind != opBatch {
			continue
		}
		r, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(ops[i].req)))
		if err != nil {
			return 0, err
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return 0, err
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		reqs = append(reqs, r)
	}
	w := &nullWriter{h: http.Header{}}
	runtime.GC()
	before := mallocs()
	for _, r := range reqs {
		api.ServeHTTP(w, r)
	}
	return float64(mallocs()-before) / float64(len(reqs)), nil
}

// brokerAllocs replays up to n arrivals through Broker.ArriveAppend with a
// recycled offer buffer, on a plain in-memory broker holding the fleet, and
// returns heap allocations per arrival.
func brokerAllocs(camps []workload.BrokerCampaign, ops []op, n int) (float64, error) {
	b, err := broker.New(broker.Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		return 0, err
	}
	defer b.Close()
	for i := range camps {
		if _, err := b.RegisterCampaignSpec(campaignSpec(&camps[i])); err != nil {
			return 0, err
		}
	}
	var arr []broker.Arrival
	for i := range ops {
		arr = append(arr, ops[i].arrivals...)
		if len(arr) >= n+64 {
			break
		}
	}
	buf := make([]broker.Offer, 0, 64)
	// The first arrivals grow per-stripe scratch; count after them.
	for _, a := range arr[:64] {
		buf, _ = b.ArriveAppend(buf[:0], a)
	}
	arr = arr[64:]
	runtime.GC()
	before := mallocs()
	for _, a := range arr {
		buf, _ = b.ArriveAppend(buf[:0], a)
	}
	return float64(mallocs()-before) / float64(len(arr)), nil
}

// geoProbe replays arrival points through geo.Grid.CoveredBy over the
// fleet (one 64×64 grid, the broker's default per-shard resolution) and
// compares each answer with Within(p, r_max), the window CoveredBy scans.
type geoProbe struct {
	probeUS, coveredPerProbe, usefulRatio float64
}

func probeGeo(camps []workload.BrokerCampaign, pts []geo.Point) geoProbe {
	g := geo.NewGrid(geo.Rect{Max: geo.Point{X: 1, Y: 1}}, 64)
	for i := range camps {
		g.InsertWithRadius(int32(i), camps[i].Loc, camps[i].Radius)
	}
	rmax := maxRadius(camps)
	var dst []int32
	var covered, within int
	start := time.Now()
	for _, p := range pts {
		dst = g.CoveredBy(dst[:0], p)
		covered += len(dst)
	}
	el := time.Since(start)
	for _, p := range pts {
		dst = g.Within(dst[:0], p, rmax)
		within += len(dst)
	}
	n := float64(len(pts))
	return geoProbe{
		probeUS:         float64(el) / 1e3 / n,
		coveredPerProbe: float64(covered) / n,
		usefulRatio:     float64(covered) / float64(within),
	}
}

// walReplay reads the records a server wrote to dir back with
// wal.ReadSegment (wal.ScanRecords over each segment) and re-appends them
// through wal.Open/Append/Flush under the server's default sync policy into
// scratch. It returns the record count and the mean Append time in µs
// (group-commit flushes and their fsyncs included).
func walReplay(dir, scratch string) (int, float64, error) {
	refs, err := wal.ListSegments(dir)
	if err != nil {
		return 0, 0, err
	}
	var recs [][]byte
	for _, ref := range refs {
		r, _, err := wal.ReadSegment(ref)
		if err != nil {
			return 0, 0, err
		}
		recs = append(recs, r...)
	}
	l, _, err := wal.Open(scratch, wal.Options{Sync: wal.SyncOnFlush})
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			l.Close()
			return 0, 0, err
		}
	}
	if err := l.Flush(); err != nil {
		l.Close()
		return 0, 0, err
	}
	el := time.Since(start)
	if err := l.Close(); err != nil {
		return 0, 0, err
	}
	if len(recs) == 0 {
		return 0, 0, nil
	}
	return len(recs), float64(el) / 1e3 / float64(len(recs)), nil
}

// recoverCopy runs broker.Recover on a copy of a crashed data directory and
// returns the records replayed and the wall time of the recovery in ms.
func recoverCopy(dir, scratch string) (int, float64, error) {
	if err := copyDir(dir, scratch); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	b, err := broker.Recover(scratch, serveConfig())
	if err != nil {
		return 0, 0, err
	}
	el := time.Since(start)
	n := b.RecoveryStats().RecordsReplayed
	return n, float64(el) / 1e6, b.Close()
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// convertTimes converts up to n open escrowed offers straight through
// Broker.Convert and returns the mean call time in µs (0 with no offers).
func convertTimes(b *broker.Broker, pool *offerPool, n int) (float64, error) {
	if pool == nil {
		return 0, nil
	}
	var total time.Duration
	k := 0
	for ; k < n; k++ {
		id, ok := pool.take(uint64(k))
		if !ok {
			break
		}
		start := time.Now()
		_, err := b.Convert(id, "")
		total += time.Since(start)
		if err != nil {
			return 0, err
		}
	}
	if k == 0 {
		return 0, nil
	}
	return float64(total) / 1e3 / float64(k), nil
}

// layers reports the per-layer metrics: the load generator, server
// counters and WAL/recovery replays of the untraced round against the real
// binary, then the traced in-process replay and the library replays.
func (b *bench) layers(rd *round, af *afterlife) error {
	rep := b.rep
	timedOps := float64(len(rd.open.samples) + len(rd.sat.samples))
	failed := float64(rd.openT.failed + rd.satT.failed)
	rep.add("host.steal_pct", rd.steal, "%")
	rep.add("loadgen.lag_p99_ms", lagP99(rd.open.samples), "ms")
	rep.add("loadgen.sent", timedOps, "count")
	rep.add("loadgen.ok", timedOps-failed, "count")
	rep.add("loadgen.error_ratio", failed/timedOps, "ratio")
	rep.add("loadgen.offers_tail_ratio", rd.openT.offersTailRatio(), "ratio")
	// The server's counters span the warm-up and both timed phases.
	d := func(name string) float64 { return delta(rd.m0, rd.m1, name) }
	meteredOps := float64(rd.warmT.ops) + timedOps
	meteredArrivals := float64(rd.warmT.arrivals + rd.openT.arrivals + rd.satT.arrivals)
	rep.add("broker.lock_contended_ratio",
		d("muaa_broker_stripe_lock_contended_total")/d("muaa_broker_stripe_lock_total"), "ratio")
	rep.add("runtime.gc_per_1k_ops", d("go_gc_cycles_total")/(meteredOps/1000), "count")
	rep.add("runtime.heap_peak_mb", rd.m1["go_heap_sys_bytes"]/(1<<20), "MB")

	var appendUS, recRecords, recMS, perFlush, flushMS, fsyncsPerS, bytesPerArrival float64
	if b.w.durable {
		recs, us, err := walReplay(af.crashDir, filepath.Join(b.tmp, "wal-replay"))
		if err != nil {
			return err
		}
		n, ms, err := recoverCopy(af.crashDir, filepath.Join(b.tmp, "recover"))
		if err != nil {
			return err
		}
		appendUS, recRecords, recMS = us, float64(n), ms
		perFlush = d("muaa_wal_appends_total") / d("muaa_wal_flushes_total")
		flushMS = 1e3 * d("muaa_wal_flush_seconds_sum") / d("muaa_wal_flush_seconds_count")
		fsyncsPerS = d("muaa_wal_fsyncs_total") / rd.metered.Seconds()
		bytesPerArrival = d("muaa_wal_bytes_total") / meteredArrivals
		rep.note("wal: %d records read back from the crashed directory", recs)
	}
	rep.add("wal.append_us", appendUS, "us")
	rep.add("wal.flush_ms", flushMS, "ms")
	rep.add("wal.records_per_flush", perFlush, "count")
	rep.add("wal.fsyncs_per_s", fsyncsPerS, "1/s")
	rep.add("wal.bytes_per_arrival", bytesPerArrival, "B")
	rep.add("wal.acked_lost", af.lostArrivals, "count")
	rep.add("wal.acked_spend_lost", af.lostSpend, "budget")
	rep.add("recovery.records", recRecords, "count")
	rep.add("recovery.replay_ms", recMS, "ms")

	if err := b.tracedLayers(); err != nil {
		return err
	}
	allocs, err := brokerAllocs(b.camps, b.ops, 2000)
	if err != nil {
		return err
	}
	rep.add("broker.allocs_per_arrival", allocs, "count")
	pts := arrivalPoints(b.ops[:b.openN])
	if len(pts) > 5000 {
		pts = pts[:5000]
	}
	g := probeGeo(b.camps, pts)
	rep.add("geo.probe_us", g.probeUS, "us")
	rep.add("geo.covered_per_probe", g.coveredPerProbe, "count")
	rep.add("geo.useful_ratio", g.usefulRatio, "ratio")
	return nil
}
