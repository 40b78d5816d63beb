package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"muaa/internal/workload"
)

// round is one measured server lifetime: spawn and register the fleet,
// warm up, then the open-loop and closed-loop phases, every response
// checked. A run measures several rounds.
type round struct {
	setup       float64 // s from spawn to healthy with every campaign registered
	open, sat   phase
	openT, satT phaseTally
	warmT       phaseTally
	rss         float64
	// m0 and m1 are the server's metrics scraped before the warm-up and
	// after the closed loop, so no scrape falls inside a timed phase;
	// metered is the time between the two scrapes.
	m0, m1  promSample
	metered time.Duration
	// steal is the share (%) of the machine's CPU time the hypervisor gave
	// other tenants during the timed phases: host contention, not the
	// program. A round above stealMax is repeated.
	steal float64
	// late is set when the timed phases ended at or after auditAt from the
	// server's spawn, so the first audit recompute may have run inside them.
	late bool
	// behind is set when the open-loop generator fell behind its schedule:
	// the host could not keep up with the offered rate, so the round is
	// measured again.
	behind bool
}

// auditAt is when, after boot, muaa-serve's live audit first recomputes
// (its -audit-every default). On arrive-dense one recompute keeps a core
// busy for seconds, so a round whose timed phases reach it is discarded:
// the end-to-end metrics exclude the periodic audit, which
// audit.recompute_ms measures on its own.
const auditAt = 15 * time.Second

// stealMax is the steal share (%) above which a round is taken as
// disturbed by the host and measured again.
const stealMax = 1.0

// clean returns the rounds that ended before the audit, kept to the
// open-loop schedule and saw no more than stealMax steal.
func clean(rds []*round) []*round {
	var out []*round
	for _, rd := range rds {
		if rd.onTime() && rd.steal <= stealMax {
			out = append(out, rd)
		}
	}
	return out
}

// onTime reports whether the round ended before the audit and its
// generator kept to the open-loop schedule.
func (rd *round) onTime() bool { return !rd.late && !rd.behind }

// usable returns the rounds the end-to-end metrics come from: the clean
// ones or, when the host stole above stealMax in every round, all that
// were on time. It returns none when no round was.
func usable(rds []*round) []*round {
	if out := clean(rds); len(out) > 0 {
		return out
	}
	var out []*round
	for _, rd := range rds {
		if rd.onTime() {
			out = append(out, rd)
		}
	}
	return out
}

// cpuSample is the machine-wide CPU time from /proc/stat, in clock ticks:
// busy (user, nice, system, irq, softirq), idle (idle, iowait) and steal —
// time a runnable vCPU waited while the hypervisor ran other tenants.
type cpuSample struct{ busy, idle, steal uint64 }

func readCPU() cpuSample {
	var s cpuSample
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		switch i {
		case 4, 5:
			s.idle += v
		case 8:
			s.steal += v
		default:
			s.busy += v
		}
	}
	return s
}

func (s cpuSample) sub(o cpuSample) cpuSample {
	return cpuSample{busy: s.busy - o.busy, idle: s.idle - o.idle, steal: s.steal - o.steal}
}

// stealPct is steal as a share (%) of all CPU time.
func (s cpuSample) stealPct() float64 {
	if t := s.busy + s.idle + s.steal; t > 0 {
		return 100 * float64(s.steal) / float64(t)
	}
	return 0
}

// liveServer is a round's server with its connections and ledger, kept
// running for what follows the round.
type liveServer struct {
	srv   *server
	dir   string
	conns []*conn
	d     *generator
	l     *ledger
}

func (lv *liveServer) close() {
	for _, c := range lv.conns {
		c.close()
	}
	lv.srv.kill()
	if lv.dir != "" {
		os.RemoveAll(lv.dir)
	}
}

// bench is what every round of a run shares.
type bench struct {
	o     options
	w     *workloadDef
	p     plan
	tmp   string
	camps []workload.BrokerCampaign
	regs  [][]byte
	ops   []op
	openN int
	rep   *report
}

// spawn starts a server and registers the fleet; it returns the server
// and the time from spawn to healthy with every campaign registered. name
// names its data directory and log file.
func (b *bench) spawn(name string) (*liveServer, float64, error) {
	lv := &liveServer{}
	if b.w.durable {
		lv.dir = filepath.Join(b.tmp, name+"-data")
	}
	srv, boot, err := startServer(b.o.serve, lv.dir, filepath.Join(b.tmp, name+".log"))
	if err != nil {
		return nil, 0, err
	}
	lv.srv = srv
	start := time.Now()
	if err := register(srv.addr, b.regs); err != nil {
		lv.close()
		return nil, 0, err
	}
	lv.l = newLedger(len(b.camps))
	return lv, (boot + time.Since(start)).Seconds(), nil
}

// equivalence runs the wire/library equivalence replay on a server of its
// own, before the rounds, so it shifts no round's timeline, and returns
// that server's set-up time. On a durable workload the same server then
// takes the crash phase: the replay is a fixed request sequence, so the log
// that recovery_s replays does not grow with how many requests a timed
// phase got through.
func (b *bench) equivalence(af *afterlife) (float64, error) {
	lv, setup, err := b.spawn("equivalence")
	if err != nil {
		return 0, err
	}
	if err := checkEquivalence(lv.srv.addr, b.camps, b.ops, lv.l); err != nil {
		b.rep.fail("equivalence replay: %v", err)
	}
	if !b.w.durable {
		lv.close()
		return setup, nil
	}
	if err := b.connect(lv); err != nil {
		lv.close()
		return 0, err
	}
	return setup, b.crashAndRestart(lv, af)
}

// connect opens nproc connections to lv's server and a generator over them.
func (b *bench) connect(lv *liveServer) error {
	for i := 0; i < runtime.NumCPU(); i++ {
		c, err := dial(lv.srv.addr)
		if err != nil {
			return err
		}
		lv.conns = append(lv.conns, c)
	}
	lv.d = &generator{conns: lv.conns, ops: b.ops, pool: poolFor(b.camps), statsReq: wireRequest("GET", "/v1/stats", nil, -1)}
	return nil
}

// measureRound runs round k. The caller closes the returned server.
func (b *bench) measureRound(k int) (*round, *liveServer, error) {
	lv, setup, err := b.spawn(fmt.Sprintf("round-%d", k))
	if err != nil {
		return nil, nil, err
	}
	rd := &round{setup: setup}
	if err := b.connect(lv); err != nil {
		lv.close()
		return nil, nil, err
	}
	if err := b.timed(rd, lv); err != nil {
		lv.close()
		return nil, nil, err
	}
	return rd, lv, nil
}

// timed runs the warm-up and the two timed phases on a registered server
// and checks them.
func (b *bench) timed(rd *round, lv *liveServer) error {
	w, d, l, c := b.w, lv.d, lv.l, lv.conns[0]
	var err error
	if rd.m0, err = scrape(c); err != nil {
		return err
	}
	m0At := time.Now()
	warm := d.openLoop(b.openN, warmCount(w.rate, w.openAt-time.Since(lv.srv.spawned)), w.rate)
	// The benchmark's own garbage collector stays off while it times, so
	// its pauses do not land in the server's latencies.
	runtime.GC()
	gc := debug.SetGCPercent(-1)
	if wait := w.openAt - time.Since(lv.srv.spawned); wait > 0 {
		time.Sleep(wait)
	} else if wait < -250*time.Millisecond {
		b.rep.note("open loop started %.2fs after spawn, not %v: set-up ran long",
			time.Since(lv.srv.spawned).Seconds(), w.openAt)
	}
	cpu0 := readCPU()
	rd.open = d.openLoop(0, b.openN, w.rate)
	rd.sat = d.closedLoop(b.openN, b.p.sat, 0, nil)
	rd.late = time.Since(lv.srv.spawned) >= auditAt
	rd.steal = readCPU().sub(cpu0).stealPct()
	rd.m1, err = scrape(c)
	rd.metered = time.Since(m0At)
	debug.SetGCPercent(gc)
	if err != nil {
		return err
	}
	if rd.rss, err = lv.srv.peakRSSMB(); err != nil {
		return err
	}
	rd.behind = behind(rd.open.samples, 25)
	// The ledger takes the phases in the order they ran.
	if rd.warmT, err = checkPhase(b.ops, warm.samples, int64(warm.elapsed), l); err != nil {
		b.rep.fail("warm-up: %v", err)
	}
	for _, ph := range []struct {
		name string
		p    *phase
		t    *phaseTally
	}{{"open loop", &rd.open, &rd.openT}, {"closed loop", &rd.sat, &rd.satT}} {
		t, err := checkPhase(b.ops, ph.p.samples, int64(ph.p.elapsed), l)
		if err != nil {
			b.rep.fail("%s: %v", ph.name, err)
		}
		*ph.t = t
		b.rep.count(t)
		if !t.live() {
			b.rep.fail("%s: offers per arrival moved by %.3f× (standard error %.3f) from first to last tenth, beyond 1 ± (%.2f + %g standard errors): budgets not live",
				ph.name, t.offersTailRatio(), t.offersTailSE(), liveSlack, liveSigmas)
		}
	}
	if err := checkLedger(c, b.camps, l); err != nil {
		b.rep.fail("ledger: %v", err)
	}
	return nil
}

// latency is the q-quantile of the round's open-loop latencies in ms.
func (rd *round) latency(q float64) float64 {
	return percentile(latencies(rd.open.samples), q)
}

// satRPS is arrivals completed per second in the closed loop.
func (rd *round) satRPS() float64 {
	return float64(rd.satT.arrivals) / rd.sat.elapsed.Seconds()
}

// crashAfter is the count of acknowledged requests at which batch-durable's
// crash phase SIGKILLs the server.
const crashAfter = 200

// After every round the workload's server is restarted and timed to
// healthy, for recovery_s, so the restarts spread over the run as the
// rounds do: durableRestarts times on a durable workload (each a replay
// of the crashed log), memRestarts times on an in-memory one (an empty
// start of a few ms).
const (
	durableRestarts = 5
	memRestarts     = 12
)

// afterlife is what the run's servers showed outside the timed phases:
// restart times and, on a durable workload, what the SIGKILL lost.
type afterlife struct {
	recovery     []float64 // s from restart to healthy
	lostArrivals float64
	lostSpend    float64
	crashDir     string // copy of the data directory as the SIGKILL left it
}

// crashAndRestart ends a durable server: a closed loop runs until
// crashAfter requests are acknowledged and the server is SIGKILLed at that
// moment; the data directory is kept. One restart on a copy of it is timed
// and its counters are compared with the client's acknowledged tally.
func (b *bench) crashAndRestart(lv *liveServer, af *afterlife) error {
	crash := lv.d.closedLoop(0, 30*time.Second, crashAfter, func() { lv.srv.cmd.Process.Kill() })
	lv.srv.kill()
	if _, err := checkPhase(b.ops, crash.samples, int64(crash.elapsed), lv.l); err != nil {
		b.rep.fail("crash phase: %v", err)
	}
	af.crashDir = filepath.Join(b.tmp, "crashed")
	err := copyDir(lv.dir, af.crashDir)
	lv.close()
	if err != nil {
		return err
	}
	return b.restart(af, 1, lv.l)
}

// restart starts the workload's server n times, one after another — on a
// durable workload each time on a fresh copy of the crashed data
// directory, else empty — and times each from spawn to healthy. With a
// ledger, the first restart's counters are compared with it.
func (b *bench) restart(af *afterlife, n int, l *ledger) error {
	for k := 0; k < n; k++ {
		dir := ""
		if b.w.durable {
			dir = filepath.Join(b.tmp, "restart-data")
			if err := copyDir(af.crashDir, dir); err != nil {
				return err
			}
		}
		s, boot, err := startServer(b.o.serve, dir, filepath.Join(b.tmp, "restart.log"))
		if err != nil {
			return err
		}
		af.recovery = append(af.recovery, boot.Seconds())
		if k == 0 && l != nil {
			err = af.compareRecovered(s.addr, l)
		}
		s.kill()
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
	}
	return nil
}

// compareRecovered reads the restarted server's counters and spend and
// records how much of what the client saw acknowledged is missing.
func (af *afterlife) compareRecovered(addr string, l *ledger) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	_, st, err := readState(c)
	if err != nil {
		return err
	}
	acked := 0.0
	for _, v := range l.spend {
		acked += v
	}
	af.lostArrivals = math.Max(0, float64(l.arrivals-st.Arrivals))
	af.lostSpend = math.Max(0, acked-st.BudgetSpent)
	return nil
}
