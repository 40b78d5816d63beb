package broker

// Tests for the billing gauges: the monotone-cursor scan behind
// oldestOpenAge, the muaa_billing_escrow_oldest_age_seconds exposition
// documented in the billing gauge table, and the revenue counters' sum.

import (
	"io"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/obs"
	"muaa/internal/workload"
)

// TestOldestOpenAgeCursor pins the gauge's scan semantics against a
// hand-built escrow table: the age tracks the lowest live ID, the cursor
// only moves forward (amortized O(1) across the broker's lifetime), it
// re-syncs with the eviction cursor, and an empty table reads zero while
// fast-forwarding the cursor to nextID.
func TestOldestOpenAgeCursor(t *testing.T) {
	bl := newBillingState(0)
	now := time.Unix(1_700_000_000, 0).UTC()
	if got := bl.oldestOpenAge(now); got != 0 {
		t.Fatalf("empty table: age = %v, want 0", got)
	}
	if bl.oldestNext != bl.nextID {
		t.Fatalf("empty scrape left cursor at %d, want fast-forward to nextID %d", bl.oldestNext, bl.nextID)
	}

	c := &campaign{id: 1}
	var ids [3]uint64
	bl.mu.Lock()
	for i := range ids {
		ids[i] = bl.holdLocked(c, model.BillingCPC, 1)
	}
	// holdLocked stamps wall clock; restamp deterministic ages 30/20/10s.
	for i, id := range ids {
		o := bl.open[id]
		o.born = now.Add(-time.Duration(30-10*i) * time.Second)
		bl.open[id] = o
	}
	bl.mu.Unlock()

	if got := bl.oldestOpenAge(now); got != 30 {
		t.Fatalf("age = %v, want 30 (oldest open hold)", got)
	}
	// Converting the oldest offer moves the scan past its dead ID.
	bl.mu.Lock()
	delete(bl.open, ids[0])
	bl.mu.Unlock()
	if got := bl.oldestOpenAge(now); got != 20 {
		t.Fatalf("age after converting oldest = %v, want 20", got)
	}
	cursor := bl.oldestNext
	if got := bl.oldestOpenAge(now); got != 20 || bl.oldestNext != cursor {
		t.Fatalf("repeat scrape: age %v cursor %d→%d, want stable 20 at %d",
			got, cursor, bl.oldestNext, cursor)
	}
	// The cursor re-syncs when eviction overtakes it.
	bl.mu.Lock()
	delete(bl.open, ids[1])
	bl.evictNext = ids[2]
	bl.mu.Unlock()
	if got := bl.oldestOpenAge(now); got != 10 {
		t.Fatalf("age after eviction passed the cursor = %v, want 10", got)
	}
	if bl.oldestNext < bl.evictNext {
		t.Fatalf("cursor %d trails evictNext %d after a scrape", bl.oldestNext, bl.evictNext)
	}
	// Draining the table reads zero again.
	bl.mu.Lock()
	delete(bl.open, ids[2])
	bl.mu.Unlock()
	if got := bl.oldestOpenAge(now); got != 0 {
		t.Fatalf("drained table: age = %v, want 0", got)
	}
}

// TestEscrowOldestAgeGauge drives real CPC escrow through an instrumented
// billed broker and checks the scrape: the gauge is present and non-negative
// while holds are open, and reads exactly 0 once every hold has converted.
func TestEscrowOldestAgeGauge(t *testing.T) {
	reg := obs.NewRegistry()
	b, err := New(Config{AdTypes: workload.DefaultAdTypes(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	slateFleet(t, b, 4, model.Billing{Model: model.BillingCPC, ReserveECPM: 1, EventRate: 0.2})

	var open []uint64
	for i := 0; i < 8; i++ {
		offers, err := b.Arrive(slateArrival(2))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range offers {
			if o.ID != 0 {
				open = append(open, o.ID)
			}
		}
	}
	if len(open) == 0 {
		t.Fatal("CPC fleet produced no escrowed offers; gauge assertions would be vacuous")
	}

	if got := scrapeGaugeLine(t, reg, "muaa_billing_escrow_oldest_age_seconds"); !strings.HasPrefix(got, "muaa_billing_escrow_oldest_age_seconds ") || strings.Contains(got, "-") {
		t.Fatalf("open escrow scrape line %q, want present and non-negative", got)
	}
	for _, id := range open {
		if _, err := b.Convert(id, ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := scrapeGaugeLine(t, reg, "muaa_billing_escrow_oldest_age_seconds"); got != "muaa_billing_escrow_oldest_age_seconds 0" {
		t.Fatalf("drained escrow scrape line %q, want exactly 0", got)
	}
}

// scrapeGaugeLine scrapes the registry over HTTP and returns the sample line
// for the named metric (failing the test when absent).
func scrapeGaugeLine(t *testing.T, reg *obs.Registry, name string) string {
	t.Helper()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	t.Fatalf("scrape has no %s sample", name)
	return ""
}

// scrapedRevenue sums muaa_billing_revenue_total over its model labels.
func scrapedRevenue(t *testing.T, reg *obs.Registry) float64 {
	t.Helper()
	var sb strings.Builder
	reg.WriteText(&sb)
	sum, labels := 0.0, 0
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "muaa_billing_revenue_total{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("revenue line %q: %v", line, err)
		}
		sum += v
		labels++
	}
	if labels != int(model.NumBillingModels) {
		t.Fatalf("scrape has %d revenue labels, want %d", labels, model.NumBillingModels)
	}
	return sum
}

// TestRevenueSumsToSpend pins the revenue counters against the ledger:
// every charge — fixed catalog costs included — is counted under its
// billing model, so Σ muaa_billing_revenue_total equals Stats().BudgetSpent,
// live, after crash recovery and after a snapshot reboot. The mixed fleet
// turns billed mid-run, after a reboot from a snapshot taken while it was
// still unbilled.
func TestRevenueSumsToSpend(t *testing.T) {
	specs, stream, err := workload.BrokerLoad(workload.DefaultBrokerLoadConfig(16, 1200, 23))
	if err != nil {
		t.Fatal(err)
	}
	for _, mixed := range []bool{false, true} {
		cfg := Config{AdTypes: workload.DefaultAdTypes(), DataDir: t.TempDir(), WAL: crashWAL()}
		var reg *obs.Registry
		boot := func() *Broker {
			reg = obs.NewRegistry()
			cfg.Metrics = reg
			b, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		check := func(stage string, b *Broker) {
			t.Helper()
			got, want := scrapedRevenue(t, reg), b.Stats().BudgetSpent
			if want <= 0 || math.Abs(got-want) > 1e-9*want {
				t.Fatalf("mixed=%v %s: Σ revenue %v, budget spent %v", mixed, stage, got, want)
			}
		}
		b := boot()
		registerLoad(t, b, specs)
		half := len(stream) / 2
		for _, op := range stream[:half] {
			applyLoadOp(t, b, op)
		}
		check("live", b)
		if mixed {
			// Reboot from an unbilled snapshot, then turn billing on with
			// reachable CPM and CPC campaigns and collect some conversions.
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			b = boot()
			check("unbilled snapshot reboot", b)
			for i, m := range []model.Billing{
				{Model: model.BillingCPM, ReserveECPM: 1},
				{Model: model.BillingCPC, ReserveECPM: 1, EventRate: 0.3},
			} {
				if _, err := b.RegisterCampaignSpec(CampaignSpec{
					Loc: geo.Point{X: 0.3 + 0.4*float64(i), Y: 0.5}, Radius: 0.4, Budget: 500,
					Tags: specs[0].Tags, Billing: m,
				}); err != nil {
					t.Fatal(err)
				}
			}
			converted := 0
			for _, op := range stream[half:] {
				if op.Kind != workload.OpArrival {
					applyLoadOp(t, b, op)
					continue
				}
				offers, err := b.Arrive(Arrival{Loc: op.Loc, Capacity: op.Capacity,
					ViewProb: op.ViewProb, Interests: op.Interests, Hour: op.Hour})
				if err != nil {
					t.Fatal(err)
				}
				for _, o := range offers {
					if o.ID != 0 && o.ID%2 == 0 {
						if _, err := b.Convert(o.ID, ""); err != nil {
							t.Fatal(err)
						}
						converted++
					}
				}
			}
			if converted == 0 || b.Stats().ConversionRevenue == 0 {
				t.Fatal("mixed fleet collected no conversions; the check would be vacuous")
			}
		} else {
			for _, op := range stream[half:] {
				applyLoadOp(t, b, op)
			}
		}
		check("live", b)
		// Crash: abandon without Close; every record is already on disk.
		b = boot()
		check("crash recovery", b)
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		b = boot()
		if !b.RecoveryStats().SnapshotLoaded {
			t.Fatal("clean reboot did not load a snapshot")
		}
		check("snapshot reboot", b)
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
