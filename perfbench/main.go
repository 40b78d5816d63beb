// Command perfbench is the repository benchmark: it drives a real
// muaa-serve over loopback under one of three traffic mixes, checks every
// output, and prints end-to-end metrics (--trace 0) or per-layer metrics
// from a traced in-process replay (--trace 1). See README.md.
//
//	bash perfbench/run.sh --workload arrive-small --seed 1 --seconds 6 --trace 0
//
// run.sh builds cmd/muaa-serve and this program, then runs it from the
// repository root. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"muaa/internal/model"
	"muaa/internal/workload"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository root
	serve    string // muaa-serve binary
}

type metric struct {
	name, unit string
	value      float64
}

// report collects one run's metrics and failed checks.
type report struct {
	metrics           []metric
	attempted, failed int
	problems          []string
	notes             []string
}

func (r *report) add(name string, v float64, unit string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count folds a phase's ops into attempted/failed.
func (r *report) count(t phaseTally) {
	r.attempted += t.ops
	r.failed += t.failed
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: arrive-small, arrive-dense or batch-durable")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated fleet and requests")
	flag.IntVar(&o.seconds, "seconds", 6, "seconds of timed load per round")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.serve, "serve", "", "muaa-serve binary")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.serve == "" || o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -serve, -seconds ≥ 1 and -trace 0|1")
		os.Exit(2)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAll()
		if dir := scratchDir.Load(); dir != nil {
			os.RemoveAll(*dir)
		}
		os.Exit(130)
	}()
	rep, err := run(o)
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !emit(o, rep) {
		os.Exit(1)
	}
}

// scratchDir is the run's scratch directory, for removal on interrupt.
var scratchDir atomic.Pointer[string]

// run executes one benchmark run in a fresh scratch directory under
// .bench_build, removed afterwards.
func run(o options) (*report, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	b := &bench{o: o, w: w, p: planFor(o.seconds), rep: &report{}}
	b.openN = int(w.rate * b.p.open.Seconds())
	if b.camps, b.ops, err = w.gen(o.seed, b.openN+w.satPool); err != nil {
		return nil, err
	}
	b.regs = make([][]byte, len(b.camps))
	for i := range b.camps {
		b.regs[i] = registerRequest(&b.camps[i])
	}
	build := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	if b.tmp, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	scratchDir.Store(&b.tmp)
	defer os.RemoveAll(b.tmp)

	want := w.rounds
	if o.trace {
		want = 1
	}
	af := &afterlife{}
	eqSetup, err := b.equivalence(af)
	if err != nil {
		return nil, err
	}
	restarts := memRestarts
	if w.durable {
		restarts = durableRestarts
	}
	var all []*round
	for k := 0; len(clean(all)) < want && k < want+1; k++ {
		rd, lv, err := b.measureRound(k)
		if err != nil {
			return nil, err
		}
		all = append(all, rd)
		b.rep.note("round %d: hypervisor steal %.1f%% of CPU time; timed phases reached the audit at %v: %t; generator behind: %t; open loop %d requests at %.0f/s (%d arrivals), p50 %.3f ms, p99 %.3f ms, p99 per second (ms):%s; closed loop %d requests over %d connections, %.0f arrivals/s",
			k, rd.steal, auditAt, rd.late, rd.behind, len(rd.open.samples), w.rate, rd.openT.arrivals, rd.latency(0.5), rd.latency(0.99),
			windowP99s(rd.open.samples), len(rd.sat.samples), len(lv.conns), rd.satRPS())
		lv.close()
		if err := b.restart(af, restarts, nil); err != nil {
			return nil, err
		}
	}
	rds := usable(all)
	switch {
	case len(rds) == 0:
		b.rep.fail("no round was on time: each reached muaa-serve's first audit recompute, %v after spawn, or its open-loop generator fell behind its schedule", auditAt)
		rds = all
	case len(clean(all)) == 0:
		b.rep.note("every round saw hypervisor steal above %.0f%%: the metrics come from disturbed rounds", stealMax)
	}
	b.rep.note("metrics from %d of %d rounds", len(rds), len(all))
	if o.trace {
		return b.rep, b.layers(rds[0], af)
	}
	// Set-up takes the median over the rounds and the equivalence server,
	// restart time the median over the restarts, and the rest the median
	// over the rounds of each round's figure.
	over := func(f func(*round) float64) float64 {
		vals := make([]float64, len(rds))
		for i, rd := range rds {
			vals[i] = f(rd)
		}
		return median(vals)
	}
	setups := []float64{eqSetup}
	for _, rd := range rds {
		setups = append(setups, rd.setup)
	}
	b.rep.add("setup_s", median(setups), "s")
	b.rep.note("latency percentiles over the %d open-loop requests of each round", len(rds[0].open.samples))
	b.rep.add("lat_p50_ms", over(func(rd *round) float64 { return rd.latency(0.5) }), "ms")
	b.rep.add("lat_p99_ms", over(func(rd *round) float64 { return rd.latency(0.99) }), "ms")
	b.rep.add("sat_rps", over((*round).satRPS), "1/s")
	b.rep.add("utility_per_arrival", over(func(rd *round) float64 {
		return rd.openT.utility / float64(rd.openT.arrivals)
	}), "utility")
	b.rep.add("rss_mb", over(func(rd *round) float64 { return rd.rss }), "MB")
	b.rep.note("restart to healthy over %d restarts (s): least %.4f, median %.4f, most %.4f",
		len(af.recovery), least(af.recovery), median(af.recovery), most(af.recovery))
	b.rep.add("recovery_s", median(af.recovery), "s")
	return b.rep, nil
}

// register posts every campaign over one connection, in order, so the
// server assigns campaign i the id i. The requests are pipelined (HTTP/1.1
// lets a client send ahead; the server answers in order), so set-up time
// is the server's registration work rather than round trips.
func register(addr string, regs [][]byte) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	sent := make(chan error, 1)
	go func() {
		w := bufio.NewWriterSize(c.c, 64<<10)
		for _, req := range regs {
			if _, err := w.Write(req); err != nil {
				sent <- err
				return
			}
		}
		sent <- w.Flush()
	}()
	want := []byte{}
	for i := range regs {
		status, body, err := c.read()
		if err != nil || status != 201 {
			c.close() // unblocks the writer
			<-sent
			return fmt.Errorf("registering campaign %d: status %d, %v", i, status, err)
		}
		want = fmt.Appendf(want[:0], `{"id":%d}`, i)
		if strings.TrimSpace(string(body)) != string(want) {
			c.close()
			<-sent
			return fmt.Errorf("campaign %d registered as %s", i, body)
		}
	}
	return <-sent
}

// poolFor returns an offer pool when the fleet has deferred (CPC/CPA)
// campaigns whose escrowed offers conversion events can name.
func poolFor(camps []workload.BrokerCampaign) *offerPool {
	for i := range camps {
		if m := camps[i].Billing.Model; m == model.BillingCPC || m == model.BillingCPA {
			return &offerPool{}
		}
	}
	return nil
}

// warmCount is how many warm-up requests fill d at rate, at least minWarm's
// worth.
func warmCount(rate float64, d time.Duration) int {
	if d < minWarm {
		d = minWarm
	}
	return int(rate * d.Seconds())
}

// windowP99s lists the p99 latency of each second of a phase.
func windowP99s(samples []sample) string {
	var wins [][]float64
	for i := range samples {
		k := int(samples[i].due / 1e9)
		for len(wins) <= k {
			wins = append(wins, nil)
		}
		wins[k] = append(wins[k], samples[i].latency())
	}
	p99s := make([]float64, len(wins))
	for i, w := range wins {
		p99s[i] = percentile(w, 0.99)
	}
	return fmtList(p99s)
}

func fmtList(vs []float64) string {
	var b strings.Builder
	for _, v := range vs {
		fmt.Fprintf(&b, " %.2f", v)
	}
	return b.String()
}

func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = samples[i].latency()
	}
	return out
}

// emit writes the report — provenance, notes, failed checks, one line per
// metric, then the result JSON as the last line — and reports whether every
// check passed.
func emit(o options, rep *report) bool {
	fmt.Printf("provenance: %s\n", provenance(o.root))
	for _, n := range rep.notes {
		fmt.Println("note:", n)
	}
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			rep.fail("metric %s is %v", m.name, m.value)
		}
	}
	for _, p := range rep.problems {
		fmt.Println("FAILED CHECK:", p)
		fmt.Fprintln(os.Stderr, "perfbench: failed check:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(rep.problems) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, m := range rep.metrics {
		fmt.Printf("metric %-30s %14.6g %s\n", m.name, m.value, m.unit)
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = -1
		}
		out.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	return out.Correct
}

// provenance names the code and machine a result came from: the git
// commit when the tree is a checkout (else a digest of the Go sources),
// the Go version, nproc and GOMAXPROCS.
func provenance(root string) string {
	sha := "none"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("git=%s src_sha256=%s go=%s nproc=%d gomaxprocs=%d",
		sha, sourceDigest(root), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// sourceDigest hashes every .go and go.mod file under root (build output
// excluded), in path order.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
