package main

import (
	"fmt"
	"math"
	"time"

	"muaa/internal/broker"
	"muaa/internal/geo"
	"muaa/internal/stats"
	"muaa/internal/workload"
)

type opKind uint8

const (
	opArrival opKind = iota // POST /v1/arrivals
	opBatch                 // POST /v1/arrivals:batch
	opTopUp                 // POST /v1/campaigns/{id}/topup
	opPause                 // POST /v1/campaigns/{id}/pause
	opStats                 // GET /v1/stats
	opEvent                 // POST /v1/events against a harvested offer id
)

// op is one generated request. req is its complete wire form, encoded
// before any timing starts; an event's body names an offer id that only
// exists at run time, so opEvent has no req and is encoded when sent.
type op struct {
	kind     opKind
	req      []byte
	arrivals []broker.Arrival // opArrival: one; opBatch: the window
	campaign int32            // opTopUp, opPause
	amount   float64          // opTopUp
	paused   bool             // opPause
	pick     uint64           // opEvent: which open offer to convert
}

// workloadDef is one traffic mix.
type workloadDef struct {
	name string
	// rate is the open-loop request rate (requests/s).
	rate float64
	// rounds is how many undisturbed server lifetimes an end-to-end run
	// measures (a traced run measures one); a disturbed round — hypervisor
	// steal above stealMax, timed phases that reached the audit, or an
	// open-loop generator that fell behind its schedule — is measured
	// again, up to one extra round per run. Every metric but setup_s and
	// recovery_s is a median over the rounds, so a round that the host
	// disturbed without showing steal does not set it. arrive-dense,
	// whose rounds each register 20,000 campaigns, measures fewer.
	rounds int
	// durable runs the server with -data-dir; one server per run is
	// SIGKILLed under load and restarted on its directory.
	durable bool
	// satPool is how many distinct requests, after the open-loop ones, the
	// warm-up and closed-loop phases cycle through.
	satPool int
	// openAt is when, counted from the server's spawn, the open-loop phase
	// starts; the warm-up runs until then, for at least minWarm. It leaves
	// room for the fleet's registration, and places the timed window (6 s
	// in BENCHMARK.json) before auditAt; a round that still reaches it is
	// measured again.
	openAt time.Duration
	// gen builds the fleet and n requests from the seed.
	gen func(seed int64, n int) ([]workload.BrokerCampaign, []op, error)
}

// liveSlack and liveSigmas bound offers-per-arrival of the last tenth of a
// timed phase divided by that of the first tenth: 1 ± (liveSlack +
// liveSigmas standard errors of the ratio). Outside it the budgets (or the
// paused set) changed the broker's work and the run is invalid.
const (
	liveSlack  = 0.15
	liveSigmas = 3.0
)

var workloads = []workloadDef{
	{
		name: "arrive-small", rate: 1000, rounds: 7, satPool: 20000, openAt: time.Second,
		gen: genSmall,
	},
	{
		name: "arrive-dense", rate: 300, rounds: 3, satPool: 8000, openAt: 4500 * time.Millisecond,
		gen: genDense,
	},
	{
		name: "batch-durable", rate: 200, rounds: 5, satPool: 600, durable: true, openAt: time.Second,
		gen: genBatchDurable,
	},
}

func lookupWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Budgets are sized so one run spends a few percent of any campaign's
// budget: the default 5–50 would exhaust the busy campaigns within seconds
// and leave an idle broker to time. Top-ups scale with them (a quarter of a
// budget draw), as in workload.BrokerLoad.
var (
	smallBudget = stats.Range{Lo: 5e4, Hi: 5e5}
	denseBudget = stats.Range{Lo: 5e3, Hi: 5e4}
	batchBudget = stats.Range{Lo: 5e4, Hi: 5e5}
)

// maxPaused caps how many campaigns the generated pause ops keep paused at
// once: uncapped, random pause/resume flips drift toward half the fleet
// paused during a run, and offers per arrival drift with it.
const maxPaused = 8

// genSmall is the DefaultBrokerLoadConfig mix over 256 paper-scale
// campaigns.
func genSmall(seed int64, n int) ([]workload.BrokerCampaign, []op, error) {
	cfg := workload.DefaultBrokerLoadConfig(256, n, seed)
	cfg.Budget = smallBudget
	camps, raw, err := workload.BrokerLoad(cfg)
	if err != nil {
		return nil, nil, err
	}
	return camps, encodeOps(capPauses(raw), 0), nil
}

// genDense is 20,000 campaigns, about 0.25% of them city-wide, under pure
// single arrivals.
func genDense(seed int64, n int) ([]workload.BrokerCampaign, []op, error) {
	cfg := workload.ArrivalBrokerLoadConfig(20000, n, seed)
	cfg.Budget = denseBudget
	camps, raw, err := workload.BrokerLoad(cfg)
	if err != nil {
		return nil, nil, err
	}
	rng := stats.NewRand(seed ^ 0x5eed)
	wide := stats.Range{Lo: 0.28, Hi: 0.32}
	for i := 0; i < len(camps); i += 400 {
		camps[i].Radius = stats.TruncGaussian(rng, wide)
	}
	return camps, encodeOps(raw, 0), nil
}

// batchWindow is the arrivals per POST /v1/arrivals:batch on batch-durable.
const batchWindow = 64

// genBatchDurable is the BilledBrokerLoadConfig fleet at 2,000 campaigns.
// Each arrival op of that mix becomes one window of batchWindow arrivals
// drawn from a second arrival stream of the same seed; conversions, top-ups,
// pauses and stats reads stay single requests.
func genBatchDurable(seed int64, n int) ([]workload.BrokerCampaign, []op, error) {
	cfg := workload.BilledBrokerLoadConfig(2000, n, seed)
	cfg.Budget = batchBudget
	camps, raw, err := workload.BrokerLoad(cfg)
	if err != nil {
		return nil, nil, err
	}
	acfg := workload.ArrivalBrokerLoadConfig(0, n*batchWindow, seed+1)
	_, arr, err := workload.BrokerLoad(acfg)
	if err != nil {
		return nil, nil, err
	}
	return camps, encodeOps(capPauses(raw), batchWindow, arr...), nil
}

// capPauses rewrites the pause ops of a stream so at most maxPaused
// campaigns are paused at any point: once the cap is reached, the next
// pause op resumes the longest-paused campaign instead.
func capPauses(ops []workload.BrokerOp) []workload.BrokerOp {
	var paused []int32
	in := map[int32]bool{}
	for i := range ops {
		o := &ops[i]
		if o.Kind != workload.OpPause {
			continue
		}
		if len(paused) >= maxPaused || (!o.Paused && len(paused) > 0) || in[o.Campaign] {
			o.Campaign, o.Paused = paused[0], false
			paused = paused[1:]
			delete(in, o.Campaign)
			continue
		}
		if !o.Paused {
			continue // resuming a running campaign: a no-op, kept as traffic
		}
		paused = append(paused, o.Campaign)
		in[o.Campaign] = true
	}
	return ops
}

func arrivalOf(o *workload.BrokerOp) broker.Arrival {
	return broker.Arrival{Loc: o.Loc, Capacity: o.Capacity, ViewProb: o.ViewProb,
		Interests: o.Interests, Hour: o.Hour}
}

// encodeOps turns a generated op stream into wire requests; request i
// carries trace seq i. With window > 0 every arrival op becomes a :batch
// request whose arrivals are consumed in order from pool.
func encodeOps(raw []workload.BrokerOp, window int, pool ...workload.BrokerOp) []op {
	ops := make([]op, len(raw))
	for i := range raw {
		r := &raw[i]
		o := &ops[i]
		switch r.Kind {
		case workload.OpArrival:
			if window == 0 {
				o.kind = opArrival
				o.arrivals = []broker.Arrival{arrivalOf(r)}
				o.req = wireRequest("POST", "/v1/arrivals", appendArrival(nil, &o.arrivals[0]), i)
				break
			}
			o.kind = opBatch
			o.arrivals = make([]broker.Arrival, window)
			body := []byte{'['}
			for k := range o.arrivals {
				o.arrivals[k] = arrivalOf(&pool[0])
				pool = pool[1:]
				if k > 0 {
					body = append(body, ',')
				}
				body = appendArrival(body, &o.arrivals[k])
			}
			body = append(body, ']')
			o.req = wireRequest("POST", "/v1/arrivals:batch", body, i)
		case workload.OpTopUp:
			o.kind, o.campaign, o.amount = opTopUp, r.Campaign, r.Amount
			body := appendFloat([]byte(`{"amount":`), r.Amount)
			o.req = wireRequest("POST", fmt.Sprintf("/v1/campaigns/%d/topup", r.Campaign), append(body, '}'), i)
		case workload.OpPause:
			o.kind, o.campaign, o.paused = opPause, r.Campaign, r.Paused
			o.req = wireRequest("POST", fmt.Sprintf("/v1/campaigns/%d/pause", r.Campaign),
				fmt.Appendf(nil, `{"paused":%t}`, r.Paused), i)
		case workload.OpConvert:
			o.kind, o.pick = opEvent, r.Pick
		default:
			o.kind = opStats
			o.req = wireRequest("GET", "/v1/stats", nil, i)
		}
	}
	return ops
}

func appendArrival(b []byte, a *broker.Arrival) []byte {
	b = append(b, `{"loc":{"x":`...)
	b = appendFloat(b, a.Loc.X)
	b = append(b, `,"y":`...)
	b = appendFloat(b, a.Loc.Y)
	b = append(b, `},"capacity":`...)
	b = fmt.Append(b, a.Capacity)
	b = append(b, `,"viewProb":`...)
	b = appendFloat(b, a.ViewProb)
	b = append(b, `,"interests":`...)
	b = appendFloats(b, a.Interests)
	b = append(b, `,"hour":`...)
	b = appendFloat(b, a.Hour)
	return append(b, '}')
}

// campaignSpec is the library form of a generated campaign.
func campaignSpec(c *workload.BrokerCampaign) broker.CampaignSpec {
	return broker.CampaignSpec{Loc: c.Loc, Radius: c.Radius, Budget: c.Budget,
		Tags: c.Tags, Billing: c.Billing}
}

// registerRequest is the POST /v1/campaigns wire request for c.
func registerRequest(c *workload.BrokerCampaign) []byte {
	b := append([]byte(nil), `{"loc":{"x":`...)
	b = appendFloat(b, c.Loc.X)
	b = append(b, `,"y":`...)
	b = appendFloat(b, c.Loc.Y)
	b = append(b, `},"radius":`...)
	b = appendFloat(b, c.Radius)
	b = append(b, `,"budget":`...)
	b = appendFloat(b, c.Budget)
	b = append(b, `,"tags":`...)
	b = appendFloats(b, c.Tags)
	if c.Billing.Model != 0 {
		b = fmt.Appendf(b, `,"billing":{"model":%q`, c.Billing.Model.String())
		if c.Billing.ReserveECPM != 0 {
			b = append(b, `,"reserve_ecpm":`...)
			b = appendFloat(b, c.Billing.ReserveECPM)
		}
		if c.Billing.EventRate != 0 {
			b = append(b, `,"event_rate":`...)
			b = appendFloat(b, c.Billing.EventRate)
		}
		b = append(b, '}')
	}
	return wireRequest("POST", "/v1/campaigns", append(b, '}'), -1)
}

// maxRadius is the largest campaign radius in the fleet.
func maxRadius(camps []workload.BrokerCampaign) float64 {
	r := 0.0
	for i := range camps {
		r = math.Max(r, camps[i].Radius)
	}
	return r
}

// arrivalPoints lists the locations of every arrival in ops.
func arrivalPoints(ops []op) []geo.Point {
	var pts []geo.Point
	for i := range ops {
		for _, a := range ops[i].arrivals {
			pts = append(pts, a.Loc)
		}
	}
	return pts
}

// minWarm is the shortest warm-up before the open-loop phase.
const minWarm = 500 * time.Millisecond

// plan is the phase schedule of one run: the open-loop phase, then the
// closed-loop one.
type plan struct {
	open, sat time.Duration
}

func planFor(seconds int) plan {
	total := time.Duration(seconds) * time.Second
	return plan{open: total * 7 / 10, sat: total * 3 / 10}
}
