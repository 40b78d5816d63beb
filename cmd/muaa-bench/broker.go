package main

// The broker scaling sweep (-exp broker): drives the same deterministic mixed
// arrival/top-up/stats stream that bench_test.go's
// BenchmarkBrokerParallelArrivals uses through one sharded broker at
// increasing goroutine counts, and prints the throughput curve plus the
// p50/p95/p99 arrival latency read back from the broker's own
// muaa_broker_arrival_seconds histogram (internal/obs) — the same numbers a
// live muaa-serve exports on GET /metrics. On multi-core hardware the curve
// shows the effect of per-stripe locking; the -shards flag (via the serve
// command) and the benchmark's -cpu flag probe the same axis.

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"muaa/internal/broker"
	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/obs"
	"muaa/internal/workload"
)

// runBrokerScaling sweeps worker counts 1,2,4,… up to maxWorkers (0 selects
// max(8, 2·GOMAXPROCS)) over a scale-sized op stream and prints ops/sec,
// speedup, and arrival-latency quantiles per point. A non-nil doc also
// collects each point for -json output.
func runBrokerScaling(w io.Writer, scale float64, maxWorkers int, seed int64, csv bool, doc *benchDoc) error {
	if maxWorkers <= 0 {
		maxWorkers = 2 * runtime.GOMAXPROCS(0)
		if maxWorkers < 8 {
			maxWorkers = 8
		}
	}
	campaigns := int(512 * scale)
	if campaigns < 16 {
		campaigns = 16
	}
	totalOps := int(400000 * scale)
	if totalOps < 20000 {
		totalOps = 20000
	}
	specs, ops, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(campaigns, totalOps, seed))
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "goroutines,ops,seconds,ops_per_sec,speedup,p50_us,p95_us,p99_us")
	} else {
		fmt.Fprintf(w, "Broker scaling — %d campaigns, %d mixed ops (90%% arrivals), GOMAXPROCS=%d\n",
			campaigns, totalOps, runtime.GOMAXPROCS(0))
		fmt.Fprintf(w, "%12s %12s %12s %14s %9s %9s %9s %9s\n",
			"goroutines", "ops", "seconds", "ops/sec", "speedup", "p50(µs)", "p95(µs)", "p99(µs)")
	}
	var base float64
	for workers := 1; workers <= maxWorkers; workers *= 2 {
		opsPerSec, lat, err := brokerThroughput(specs, ops, workers)
		if err != nil {
			return err
		}
		if base == 0 {
			base = opsPerSec
		}
		p50, p95, p99 := lat.Quantile(0.50)*1e6, lat.Quantile(0.95)*1e6, lat.Quantile(0.99)*1e6
		if doc != nil {
			doc.Points = append(doc.Points, benchPoint{
				Series:     "broker_scaling",
				Label:      fmt.Sprintf("goroutines=%d", workers),
				Goroutines: workers,
				Ops:        totalOps,
				NsPerOp:    1e9 / opsPerSec,
				OpsPerSec:  opsPerSec,
				Speedup:    opsPerSec / base,
				P50Us:      jsonSafe(p50),
				P95Us:      jsonSafe(p95),
				P99Us:      jsonSafe(p99),
			})
		}
		if csv {
			fmt.Fprintf(w, "%d,%d,%.4f,%.0f,%.2f,%.2f,%.2f,%.2f\n",
				workers, totalOps, float64(totalOps)/opsPerSec, opsPerSec, opsPerSec/base, p50, p95, p99)
		} else {
			fmt.Fprintf(w, "%12d %12d %12.4f %14.0f %8.2fx %9.2f %9.2f %9.2f\n",
				workers, totalOps, float64(totalOps)/opsPerSec, opsPerSec, opsPerSec/base, p50, p95, p99)
		}
	}
	return runBrokerBatch(w, scale, seed, csv, doc)
}

// runBrokerBatch sweeps the ArriveBatch window over a pure-arrival stream:
// an interleaved A/B of the serial entry point against batch windows
// {1, 8, 64, 256} on one instrumented broker per run, single-goroutine (the
// answer-delay trade is per submitter; cross-submitter parallelism is the
// scaling sweep above). ns/op is per arrival in every arm; speedup is
// serial-mean over arm-mean.
func runBrokerBatch(w io.Writer, scale float64, seed int64, csv bool, doc *benchDoc) error {
	campaigns := int(512 * scale)
	if campaigns < 16 {
		campaigns = 16
	}
	totalOps := int(200000 * scale)
	if totalOps < 20000 {
		totalOps = 20000
	}
	specs, ops, err := workload.BrokerLoad(workload.ArrivalBrokerLoadConfig(campaigns, totalOps, seed))
	if err != nil {
		return err
	}
	arrivals := make([]broker.Arrival, len(ops))
	for i, op := range ops {
		arrivals[i] = broker.Arrival{
			Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb,
			Interests: op.Interests, Hour: op.Hour,
		}
	}
	windows := []int{0, 1, 8, 64, 256} // 0 = serial Arrive baseline
	const rounds = 3
	samples := make([][]float64, len(windows))
	for r := 0; r < rounds; r++ {
		for i, window := range windows {
			ns, err := batchRun(specs, arrivals, window)
			if err != nil {
				return err
			}
			samples[i] = append(samples[i], ns)
		}
	}
	baseMean, _ := meanMin(samples[0])
	if csv {
		fmt.Fprintln(w, "batch,rounds,arrivals,mean_ns_per_arrival,best_ns_per_arrival,speedup")
	} else {
		fmt.Fprintf(w, "\nBatch ingestion — %d campaigns, %d arrivals (pure-arrival stream), %d interleaved rounds\n",
			campaigns, totalOps, rounds)
		fmt.Fprintf(w, "%12s %16s %16s %9s\n", "batch", "mean ns/arr", "best ns/arr", "speedup")
	}
	for i, window := range windows {
		mean, best := meanMin(samples[i])
		label := "serial"
		if window > 0 {
			label = fmt.Sprintf("batch=%d", window)
		}
		if doc != nil {
			doc.Points = append(doc.Points, benchPoint{
				Series:      "broker_batch",
				Label:       label,
				BatchSize:   window,
				Ops:         totalOps,
				NsPerOp:     mean,
				BestNsPerOp: best,
				Speedup:     baseMean / mean,
			})
		}
		if csv {
			fmt.Fprintf(w, "%s,%d,%d,%.1f,%.1f,%.2f\n", label, rounds, totalOps, mean, best, baseMean/mean)
		} else {
			fmt.Fprintf(w, "%12s %16.1f %16.1f %8.2fx\n", label, mean, best, baseMean/mean)
		}
	}
	return runBrokerSlate(w, scale, seed, csv, doc)
}

// runBrokerSlate prices billing on a pure-arrival fixed-cost stream: a
// "serial" baseline (billing off, a_i = 1) against a billed broker at slot
// capacities a_i ∈ {1, 2, 4}, interleaved A/B like the batch sweep. Billing
// is turned on by one billed campaign no arrival reaches. The a_i = 1 slate
// arm measures the pure overhead of active billing on the workload where
// both arms make bit-identical decisions (TestSlateEquivalenceSerial); the
// a_i > 1 arms price the MCKP slot fill itself. ns/op is per arrival in
// every arm.
func runBrokerSlate(w io.Writer, scale float64, seed int64, csv bool, doc *benchDoc) error {
	campaigns := int(512 * scale)
	if campaigns < 16 {
		campaigns = 16
	}
	totalOps := int(200000 * scale)
	if totalOps < 20000 {
		totalOps = 20000
	}
	specs, ops, err := workload.BrokerLoad(workload.ArrivalBrokerLoadConfig(campaigns, totalOps, seed))
	if err != nil {
		return err
	}
	arms := []struct {
		label    string
		capacity int
		slate    bool
	}{
		{"serial", 1, false},
		{"slate a=1", 1, true},
		{"slate a=2", 2, true},
		{"slate a=4", 4, true},
	}
	const rounds = 3
	samples := make([][]float64, len(arms))
	for r := 0; r < rounds; r++ {
		for i, arm := range arms {
			arrivals := make([]broker.Arrival, len(ops))
			for j, op := range ops {
				arrivals[j] = broker.Arrival{
					Loc: op.Loc, Capacity: arm.capacity, ViewProb: op.ViewProb,
					Interests: op.Interests, Hour: op.Hour,
				}
			}
			ns, err := slateRun(specs, arrivals, arm.slate)
			if err != nil {
				return err
			}
			samples[i] = append(samples[i], ns)
		}
	}
	baseMean, _ := meanMin(samples[0])
	if csv {
		fmt.Fprintln(w, "arm,capacity,rounds,arrivals,mean_ns_per_arrival,best_ns_per_arrival,speedup")
	} else {
		fmt.Fprintf(w, "\nSlate scan — %d campaigns, %d arrivals (pure-arrival fixed-cost stream), %d interleaved rounds\n",
			campaigns, totalOps, rounds)
		fmt.Fprintf(w, "%12s %10s %16s %16s %9s\n", "arm", "a_i", "mean ns/arr", "best ns/arr", "speedup")
	}
	for i, arm := range arms {
		mean, best := meanMin(samples[i])
		if doc != nil {
			doc.Points = append(doc.Points, benchPoint{
				Series:      "broker_slate",
				Label:       arm.label,
				Capacity:    arm.capacity,
				Ops:         totalOps,
				NsPerOp:     mean,
				BestNsPerOp: best,
				Speedup:     baseMean / mean,
			})
		}
		if csv {
			fmt.Fprintf(w, "%s,%d,%d,%d,%.1f,%.1f,%.2f\n", arm.label, arm.capacity, rounds, totalOps, mean, best, baseMean/mean)
		} else {
			fmt.Fprintf(w, "%12s %10d %16.1f %16.1f %8.2fx\n", arm.label, arm.capacity, mean, best, baseMean/mean)
		}
	}
	return runBrokerObs(w, scale, seed, csv, doc)
}

// runBrokerObs prices the time-series retention sampler on the serial
// arrival hot path: an interleaved A/B of sampler-off against the 5s
// default cadence and an aggressive 50ms cadence. Each arm replays the
// same pure-arrival stream on a fresh instrumented broker while (in the
// sampled arms) an obs.Sampler snapshots the whole registry from its
// background goroutine — the contention the muaa-serve default actually
// adds. The acceptance budget is <5% overhead at the default interval;
// overhead_pct in BENCH_broker.json tracks it per commit.
func runBrokerObs(w io.Writer, scale float64, seed int64, csv bool, doc *benchDoc) error {
	campaigns := int(512 * scale)
	if campaigns < 16 {
		campaigns = 16
	}
	totalOps := int(200000 * scale)
	if totalOps < 20000 {
		totalOps = 20000
	}
	specs, ops, err := workload.BrokerLoad(workload.ArrivalBrokerLoadConfig(campaigns, totalOps, seed))
	if err != nil {
		return err
	}
	arrivals := make([]broker.Arrival, len(ops))
	for i, op := range ops {
		arrivals[i] = broker.Arrival{
			Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb,
			Interests: op.Interests, Hour: op.Hour,
		}
	}
	arms := []struct {
		label string
		every time.Duration
	}{
		{"off", 0},
		{"every=5s", 5 * time.Second},
		{"every=50ms", 50 * time.Millisecond},
	}
	const rounds = 3
	samples := make([][]float64, len(arms))
	for r := 0; r < rounds; r++ {
		for i, arm := range arms {
			ns, err := obsRun(specs, arrivals, arm.every)
			if err != nil {
				return err
			}
			samples[i] = append(samples[i], ns)
		}
	}
	baseMean, _ := meanMin(samples[0])
	if csv {
		fmt.Fprintln(w, "sampler,rounds,arrivals,mean_ns_per_arrival,best_ns_per_arrival,overhead_pct")
	} else {
		fmt.Fprintf(w, "\nTime-series sampler — %d campaigns, %d arrivals (serial hot path), %d interleaved rounds\n",
			campaigns, totalOps, rounds)
		fmt.Fprintf(w, "%12s %16s %16s %10s\n", "sampler", "mean ns/arr", "best ns/arr", "overhead")
	}
	for i, arm := range arms {
		mean, best := meanMin(samples[i])
		overhead := (mean/baseMean - 1) * 100
		if doc != nil {
			doc.Points = append(doc.Points, benchPoint{
				Series:      "obs_sample",
				Label:       arm.label,
				Ops:         totalOps,
				NsPerOp:     mean,
				BestNsPerOp: best,
				Speedup:     baseMean / mean,
				OverheadPct: overhead,
			})
		}
		if csv {
			fmt.Fprintf(w, "%s,%d,%d,%.1f,%.1f,%.2f\n", arm.label, rounds, totalOps, mean, best, overhead)
		} else {
			fmt.Fprintf(w, "%12s %16.1f %16.1f %9.2f%%\n", arm.label, mean, best, overhead)
		}
	}
	return nil
}

// obsRun replays the arrival stream serially on a fresh instrumented
// broker — with a live background sampler at the given cadence when every
// is positive — and returns ns per arrival.
func obsRun(specs []workload.BrokerCampaign, arrivals []broker.Arrival, every time.Duration) (float64, error) {
	reg := obs.NewRegistry()
	b, err := broker.New(broker.Config{AdTypes: workload.DefaultAdTypes(), Metrics: reg})
	if err != nil {
		return 0, err
	}
	if every > 0 {
		s := obs.NewSampler(reg, obs.SamplerOptions{Every: every})
		s.Start()
		defer s.Stop()
	}
	for _, c := range specs {
		if _, err := b.RegisterCampaign(c.Loc, c.Radius, c.Budget, c.Tags); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := range arrivals {
		if _, err := b.Arrive(arrivals[i]); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(len(arrivals)), nil
}

// slateRun replays the arrival stream serially on a fresh broker — with
// billing active when slate is set — and returns ns per arrival.
func slateRun(specs []workload.BrokerCampaign, arrivals []broker.Arrival, slate bool) (float64, error) {
	b, err := broker.New(broker.Config{AdTypes: workload.DefaultAdTypes(), Metrics: obs.NewRegistry()})
	if err != nil {
		return 0, err
	}
	for _, c := range specs {
		if _, err := b.RegisterCampaign(c.Loc, c.Radius, c.Budget, c.Tags); err != nil {
			return 0, err
		}
	}
	if slate {
		// Billing turns on with the first billed campaign; this one sits
		// outside the service area with zero radius, so no arrival reaches it.
		if _, err := b.RegisterCampaignSpec(broker.CampaignSpec{
			Loc: geo.Point{X: -1, Y: -1}, Budget: 1, Tags: []float64{1},
			Billing: model.Billing{Model: model.BillingCPM, ReserveECPM: 1},
		}); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := range arrivals {
		if _, err := b.Arrive(arrivals[i]); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(len(arrivals)), nil
}

// batchRun replays the arrival stream once on a fresh instrumented broker —
// serially when window is 0, in ArriveBatch windows otherwise — and returns
// ns per arrival.
func batchRun(specs []workload.BrokerCampaign, arrivals []broker.Arrival, window int) (float64, error) {
	b, err := broker.New(broker.Config{AdTypes: workload.DefaultAdTypes(), Metrics: obs.NewRegistry()})
	if err != nil {
		return 0, err
	}
	for _, c := range specs {
		if _, err := b.RegisterCampaign(c.Loc, c.Radius, c.Budget, c.Tags); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	if window == 0 {
		for i := range arrivals {
			if _, err := b.Arrive(arrivals[i]); err != nil {
				return 0, err
			}
		}
	} else {
		for lo := 0; lo < len(arrivals); lo += window {
			hi := lo + window
			if hi > len(arrivals) {
				hi = len(arrivals)
			}
			for _, res := range b.ArriveBatch(arrivals[lo:hi]) {
				if res.Err != nil {
					return 0, res.Err
				}
			}
		}
	}
	elapsed := time.Since(start)
	return float64(elapsed.Nanoseconds()) / float64(len(arrivals)), nil
}

// brokerThroughput replays the op stream across `workers` goroutines against
// a fresh instrumented broker and returns the aggregate operation rate plus
// the merged arrival-latency histogram for quantile reporting.
func brokerThroughput(specs []workload.BrokerCampaign, ops []workload.BrokerOp, workers int) (float64, obs.HistogramSnapshot, error) {
	reg := obs.NewRegistry()
	b, err := broker.New(broker.Config{AdTypes: workload.DefaultAdTypes(), Metrics: reg})
	if err != nil {
		return 0, obs.HistogramSnapshot{}, err
	}
	for _, c := range specs {
		if _, err := b.RegisterCampaign(c.Loc, c.Radius, c.Budget, c.Tags); err != nil {
			return 0, obs.HistogramSnapshot{}, err
		}
	}
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(ops); i += workers {
				if err := applyOp(b, ops[i]); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if p := firstErr.Load(); p != nil {
		return 0, obs.HistogramSnapshot{}, *p
	}
	lat := reg.FindHistogram("muaa_broker_arrival_seconds").Snapshot()
	if lat.Count == 0 {
		// A degenerate stream (no positive-capacity arrivals) has no
		// latency distribution; report NaN quantiles rather than zeros.
		lat.Sum = math.NaN()
	}
	return float64(len(ops)) / elapsed.Seconds(), lat, nil
}

// jsonSafe zeroes the NaN a degenerate (arrival-free) stream produces, so
// the document always marshals.
func jsonSafe(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

func applyOp(b *broker.Broker, op workload.BrokerOp) error {
	switch op.Kind {
	case workload.OpArrival:
		_, err := b.Arrive(broker.Arrival{
			Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb,
			Interests: op.Interests, Hour: op.Hour,
		})
		return err
	case workload.OpTopUp:
		return b.TopUp(op.Campaign, op.Amount)
	case workload.OpPause:
		return b.SetPaused(op.Campaign, op.Paused)
	default:
		b.Stats()
		return nil
	}
}
