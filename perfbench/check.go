package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"muaa/internal/broker"
	"muaa/internal/workload"
)

// offerJSON is the wire form of one offer (the fields the checks use).
type offerJSON struct {
	Campaign   int32   `json:"campaign"`
	AdType     int     `json:"adType"`
	Utility    float64 `json:"utility"`
	Efficiency float64 `json:"efficiency"`
	Cost       float64 `json:"cost"`
	OfferID    uint64  `json:"offer_id"`
	ChargeECPM float64 `json:"charge_ecpm"`
}

type arrivalJSON struct {
	Offers []offerJSON `json:"offers"`
}

type batchJSON struct {
	Results []struct {
		Offers *[]offerJSON `json:"offers"`
		Error  *struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	} `json:"results"`
}

type eventJSON struct {
	OfferID  uint64  `json:"offer_id"`
	Campaign int32   `json:"campaign"`
	Charged  float64 `json:"charged"`
}

type campaignJSON struct {
	ID     int32   `json:"id"`
	Budget float64 `json:"budget"`
	Spent  float64 `json:"spent"`
}

// ledger is the client's account of everything the server acknowledged.
type ledger struct {
	arrivals, offers int64
	spend            []float64 // per campaign: offer costs + conversion charges
	topUps           []float64 // per campaign: acknowledged top-up amounts
}

func newLedger(campaigns int) *ledger {
	return &ledger{spend: make([]float64, campaigns), topUps: make([]float64, campaigns)}
}

// book records one acknowledged arrival and its offers.
func (l *ledger) book(offers []offerJSON) {
	l.arrivals++
	l.offers += int64(len(offers))
	for _, of := range offers {
		l.spend[of.Campaign] += of.Cost
	}
}

// arrivalOffers parses the acknowledged response to an arrival or :batch
// request into one offer list per arrival: a batch must answer every
// arrival, in order, and reject none.
func arrivalOffers(o *op, body []byte) ([][]offerJSON, error) {
	if o.kind == opArrival {
		var r arrivalJSON
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, fmt.Errorf("arrival response does not parse: %v", err)
		}
		return [][]offerJSON{r.Offers}, nil
	}
	var r batchJSON
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("batch response does not parse: %v", err)
	}
	if len(r.Results) != len(o.arrivals) {
		return nil, fmt.Errorf("%d batch results for %d arrivals", len(r.Results), len(o.arrivals))
	}
	out := make([][]offerJSON, len(r.Results))
	for k, res := range r.Results {
		if res.Error != nil || res.Offers == nil {
			return nil, fmt.Errorf("batch element %d rejected", k)
		}
		out[k] = *res.Offers
	}
	return out, nil
}

// phaseTally summarizes the checked responses of one phase.
type phaseTally struct {
	ops, failed      int
	arrivals, offers int64
	utility          float64
	// tenths holds offers, arrivals and the sum of squared offers per
	// arrival in the first and last tenth of the phase (by send time), for
	// the budget-liveness band.
	firstOffers, firstArr, firstSq, lastOffers, lastArr, lastSq int64
}

// offersTailRatio is offers per arrival in the last tenth of the phase over
// that of the first tenth.
func (t *phaseTally) offersTailRatio() float64 {
	if t.firstArr == 0 || t.lastArr == 0 || t.firstOffers == 0 {
		return math.NaN()
	}
	return (float64(t.lastOffers) / float64(t.lastArr)) / (float64(t.firstOffers) / float64(t.firstArr))
}

// offersTailSE is the standard error of offersTailRatio. A tenth's arrivals
// are a sample of the stream, so with every budget live the ratio still
// moves from seed to seed by its sampling error: on arrive-small about 0.07.
func (t *phaseTally) offersTailSE() float64 {
	se := func(n, s, sq int64) float64 { // standard error of a tenth's mean
		m := float64(s) / float64(n)
		return math.Sqrt(math.Max(0, float64(sq)/float64(n)-m*m) / float64(n))
	}
	r := t.offersTailRatio()
	first := float64(t.firstOffers) / float64(t.firstArr)
	return math.Hypot(se(t.lastArr, t.lastOffers, t.lastSq), r*se(t.firstArr, t.firstOffers, t.firstSq)) / first
}

// live reports whether offers per arrival held between the first and last
// tenth: the ratio lies within liveSlack of 1 plus liveSigmas standard
// errors. Budgets running dry drive it far below.
func (t *phaseTally) live() bool {
	return math.Abs(t.offersTailRatio()-1) <= liveSlack+liveSigmas*t.offersTailSE()
}

// checkOffers validates one arrival's offers against its request.
func checkOffers(a *broker.Arrival, offers []offerJSON, campaigns int) error {
	if len(offers) > a.Capacity {
		return fmt.Errorf("%d offers for capacity %d", len(offers), a.Capacity)
	}
	seen := make(map[int32]bool, len(offers))
	for _, o := range offers {
		if o.Campaign < 0 || int(o.Campaign) >= campaigns {
			return fmt.Errorf("offer names unknown campaign %d", o.Campaign)
		}
		if seen[o.Campaign] {
			return fmt.Errorf("two offers from campaign %d in one arrival", o.Campaign)
		}
		seen[o.Campaign] = true
	}
	return nil
}

// checkPhase parses and validates every acknowledged response of a phase,
// folds it into the ledger, and drops the bodies. span is the phase length
// in ns, for the tenths.
func checkPhase(ops []op, samples []sample, span int64, l *ledger) (phaseTally, error) {
	var t phaseTally
	t.ops = len(samples)
	campaigns := len(l.spend)
	for i := range samples {
		s := &samples[i]
		if s.failed {
			t.failed++
			continue
		}
		o := &ops[s.op]
		var perArrival [][]offerJSON
		switch s.kind {
		case opArrival, opBatch:
			var err error
			if perArrival, err = arrivalOffers(o, s.body); err != nil {
				return t, fmt.Errorf("op %d: %v", s.op, err)
			}
		case opTopUp:
			l.topUps[o.campaign] += o.amount
		case opEvent:
			var r eventJSON
			if err := json.Unmarshal(s.body, &r); err != nil {
				return t, fmt.Errorf("op %d: event response does not parse: %v", s.op, err)
			}
			if r.Campaign < 0 || int(r.Campaign) >= campaigns {
				return t, fmt.Errorf("op %d: event names unknown campaign %d", s.op, r.Campaign)
			}
			l.spend[r.Campaign] += r.Charged
		default: // pause, stats
			if !json.Valid(s.body) {
				return t, fmt.Errorf("op %d: response does not parse", s.op)
			}
		}
		var offers, sq int64
		for k, offs := range perArrival {
			if err := checkOffers(&o.arrivals[k], offs, campaigns); err != nil {
				return t, fmt.Errorf("op %d arrival %d: %v", s.op, k, err)
			}
			l.book(offs)
			for _, of := range offs {
				t.utility += of.Utility
			}
			offers += int64(len(offs))
			sq += int64(len(offs) * len(offs))
		}
		arr := int64(len(perArrival))
		t.arrivals += arr
		t.offers += offers
		switch {
		case s.sent < span/10:
			t.firstArr += arr
			t.firstOffers += offers
			t.firstSq += sq
		case s.sent >= span-span/10:
			t.lastArr += arr
			t.lastOffers += offers
			t.lastSq += sq
		}
		s.body = nil
	}
	return t, nil
}

// checkLedger compares the server's final campaign states and counters
// with the client's ledger: every campaign's budget is its registered
// budget plus the acknowledged top-ups, its spend matches the acknowledged
// offers and conversions and never exceeds its budget, and the broker
// counted exactly the acknowledged arrivals and offers.
func checkLedger(c *conn, camps []workload.BrokerCampaign, l *ledger) error {
	states, st, err := readState(c)
	if err != nil {
		return err
	}
	if len(states) != len(camps) {
		return fmt.Errorf("server lists %d campaigns, %d registered", len(states), len(camps))
	}
	for _, s := range states {
		i := s.ID
		if i < 0 || int(i) >= len(camps) {
			return fmt.Errorf("unknown campaign id %d", i)
		}
		want := camps[i].Budget + l.topUps[i]
		if !near(s.Budget, want) {
			return fmt.Errorf("campaign %d budget %v, registered+top-ups %v", i, s.Budget, want)
		}
		if s.Spent > s.Budget*(1+1e-12) {
			return fmt.Errorf("campaign %d spent %v over budget %v", i, s.Spent, s.Budget)
		}
		if !near(s.Spent, l.spend[i]) {
			return fmt.Errorf("campaign %d spent %v, acknowledged %v", i, s.Spent, l.spend[i])
		}
	}
	if st.Arrivals != l.arrivals || st.OffersPushed != l.offers {
		return fmt.Errorf("server counted %d arrivals / %d offers, client acknowledged %d / %d",
			st.Arrivals, st.OffersPushed, l.arrivals, l.offers)
	}
	return nil
}

// readState fetches GET /v1/campaigns and GET /v1/stats.
func readState(c *conn) ([]campaignJSON, broker.Stats, error) {
	var states []campaignJSON
	var st broker.Stats
	status, body, err := c.get("/v1/campaigns")
	if err != nil || status != 200 {
		return nil, st, fmt.Errorf("GET /v1/campaigns: status %d, %v", status, err)
	}
	if err := json.Unmarshal(body, &states); err != nil {
		return nil, st, fmt.Errorf("GET /v1/campaigns does not parse: %v", err)
	}
	status, body, err = c.get("/v1/stats")
	if err != nil || status != 200 {
		return nil, st, fmt.Errorf("GET /v1/stats: status %d, %v", status, err)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, st, fmt.Errorf("GET /v1/stats does not parse: %v", err)
	}
	return states, st, nil
}

// near compares two sums of the same terms added in different orders.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// replayArrivals is how many arrivals the equivalence replay covers.
const replayArrivals = 600

// checkEquivalence replays the stream's arrival, top-up and pause requests,
// from the first until replayArrivals arrivals are covered, over one
// connection to a freshly registered server and through
// Broker.ArriveAppend on an in-process broker holding the same campaigns,
// and requires the same offers, field for field. What the server
// acknowledges goes into l.
func checkEquivalence(addr string, camps []workload.BrokerCampaign, ops []op, l *ledger) error {
	b, err := broker.New(broker.Config{AdTypes: workload.DefaultAdTypes()})
	if err != nil {
		return err
	}
	defer b.Close()
	for i := range camps {
		if _, err := b.RegisterCampaignSpec(campaignSpec(&camps[i])); err != nil {
			return err
		}
	}
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	var buf []broker.Offer
	covered := 0
	for i := range ops {
		if covered >= replayArrivals {
			break
		}
		o := &ops[i]
		if o.kind == opStats || o.kind == opEvent {
			continue
		}
		covered += len(o.arrivals)
		status, body, err := c.do(o.req)
		if err != nil || status != 200 {
			return fmt.Errorf("replay op %d: status %d, %v", i, status, err)
		}
		switch o.kind {
		case opTopUp:
			l.topUps[o.campaign] += o.amount
			if err := b.TopUp(o.campaign, o.amount); err != nil {
				return err
			}
			continue
		case opPause:
			if err := b.SetPaused(o.campaign, o.paused); err != nil {
				return err
			}
			continue
		}
		wire, err := arrivalOffers(o, body)
		if err != nil {
			return fmt.Errorf("replay op %d: %v", i, err)
		}
		for k := range o.arrivals {
			buf, err = b.ArriveAppend(buf[:0], o.arrivals[k])
			if err != nil {
				return err
			}
			if err := sameOffers(wire[k], buf); err != nil {
				return fmt.Errorf("replay op %d arrival %d: wire and library differ: %v", i, k, err)
			}
			l.book(wire[k])
		}
	}
	return nil
}

func sameOffers(wire []offerJSON, lib []broker.Offer) error {
	if len(wire) != len(lib) {
		return fmt.Errorf("%d offers on the wire, %d from the library", len(wire), len(lib))
	}
	for i := range lib {
		w, o := wire[i], lib[i]
		if w.Campaign != o.Campaign || w.AdType != o.AdType || w.Utility != o.Utility ||
			w.Efficiency != o.Efficiency || w.Cost != o.Cost || w.OfferID != o.ID ||
			w.ChargeECPM != o.ChargeECPM {
			return fmt.Errorf("offer %d: wire %+v, library %+v", i, w, o)
		}
	}
	return nil
}

// lagP99 is the 99th percentile of how late requests were sent, in ms.
func lagP99(samples []sample) float64 {
	lags := make([]float64, len(samples))
	for i := range samples {
		lags[i] = float64(samples[i].sent-samples[i].due) / 1e6
	}
	return percentile(lags, 0.99)
}

// behind reports whether an open-loop generator fell behind its schedule:
// the median send lag over the last tenth of the phase exceeds maxLagMs,
// i.e. a backlog was still growing when the phase ended.
func behind(samples []sample, maxLagMs float64) bool {
	s := append([]sample(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i].due < s[j].due })
	tail := s[len(s)-len(s)/10:]
	lags := make([]float64, len(tail))
	for i := range tail {
		lags[i] = float64(tail[i].sent-tail[i].due) / 1e6
	}
	return median(lags) > maxLagMs
}
