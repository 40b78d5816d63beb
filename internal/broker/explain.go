package broker

// Explain-replay: "why did (or didn't) this arrival get these offers?"
//
// Explain runs the decision scan itself — the same gather, filters, threshold
// walk and slot resolution every arrival runs — over a hypothetical arrival,
// under the covering stripe locks, with a verdict sink attached, and returns
// the full per-candidate breakdown instead of committing anything. Nothing
// observable changes: no spend, no WAL record, no arrivals counter, no
// funnel attribution, and no γ observations — the walk's feed-forward γ
// updates land in a private copy of the live bounds, so the predicted
// thresholds are exactly what an immediately-following Arrive would
// compute. Read-only-ness is pinned by the golden replay transcripts with
// explain calls interleaved (TestReplayMatchesGoldenExplainInterleaved).
//
// Explain allocates freely (a fresh arena per call, never a stripe's): it is
// a debug endpoint, not the hot path, and borrowing the arena would couple
// its high-water marks to diagnostic traffic.

import (
	"errors"
	"fmt"
	"net/http"

	"muaa/internal/geo"
	"muaa/internal/model"
)

// ExplainReport is the full decision breakdown for one hypothetical arrival.
type ExplainReport struct {
	// Slate reports whether billing was active: bids then carry their eCPM
	// and reserve verdict, and an arrival with capacity ≥ 2 fills its slots
	// with the MCKP solver.
	Slate bool `json:"slate"`
	// Boost is the pacing controller's threshold multiplier the scan applied
	// (1 without a controller).
	Boost float64 `json:"boost"`
	// GammaMin/GammaMax are the live γ bounds at entry (zeros before the
	// first observation, as Stats reports them) and G the threshold base φ
	// used at entry — configured, or core.TunedG of the bounds.
	GammaMin float64 `json:"gamma_min"`
	GammaMax float64 `json:"gamma_max"`
	G        float64 `json:"g"`
	// StripeLo/StripeHi are the stripe interval the arrival would lock.
	StripeLo int `json:"stripe_lo"`
	StripeHi int `json:"stripe_hi"`
	// Gathered is the candidate count the grid probes returned; Offered how
	// many offers the arrival would receive.
	Gathered int `json:"gathered"`
	Offered  int `json:"offered"`
	// Candidates carries one entry per gathered candidate, in scan order.
	Candidates []ExplainCandidate `json:"candidates"`
}

// ExplainCandidate is the decision breakdown for one gathered campaign.
type ExplainCandidate struct {
	Campaign int32 `json:"campaign"`
	// Disposition is the funnel bucket the candidate would land in (see
	// dispositionNames): offered, paused, exhausted, tag_mismatch, low_score,
	// unaffordable, below_threshold, below_reserve, displaced_by_slate.
	Disposition string `json:"disposition"`

	// Scoring terms, present once the candidate passes the cheap filters.
	Distance float64 `json:"distance,omitempty"`
	Score    float64 `json:"score,omitempty"`
	Delta    float64 `json:"delta,omitempty"`
	// Relief marks a guaranteed campaign behind its pro-rated floor (its
	// threshold was scaled by the relief factor).
	Relief bool `json:"relief,omitempty"`
	// Threshold is φ(δ) as this candidate saw it: pacing boost and guarantee
	// relief applied, γ feed-forward from every earlier candidate included.
	Threshold float64 `json:"threshold"`
	// Base is the Eq. 4 per-effect value (viewProb × score / distance).
	Base float64 `json:"base,omitempty"`
	// Remaining is the spendable budget after escrow and pacing caps;
	// Headroom the unspent, unescrowed budget; Escrow the budget held
	// against open offers.
	Remaining float64 `json:"remaining,omitempty"`
	Headroom  float64 `json:"headroom,omitempty"`
	Escrow    float64 `json:"escrow,omitempty"`

	// Bids is the per-ad-type breakdown of the threshold walk.
	Bids []ExplainBid `json:"bids,omitempty"`
	// Offer is the offer this candidate would win, when Disposition is
	// "offered". No offer ID is assigned — nothing is committed.
	Offer *ExplainOffer `json:"offer,omitempty"`
}

// ExplainBid is one (candidate, ad-type) evaluation in the threshold walk.
type ExplainBid struct {
	AdType int     `json:"ad_type"`
	Name   string  `json:"name"`
	Cost   float64 `json:"cost"`
	// Affordable: the catalog cost fits the spendable budget.
	Affordable bool `json:"affordable"`
	// BidECPM and AboveReserve appear only while billing is active: the
	// campaign's eCPM-normalized bid and whether it cleared its own reserve.
	BidECPM      float64 `json:"bid_ecpm,omitempty"`
	AboveReserve bool    `json:"above_reserve,omitempty"`
	// Utility and Efficiency are the admission currency (efficiency divides
	// by the billing-expected cost).
	Utility    float64 `json:"utility,omitempty"`
	Efficiency float64 `json:"efficiency,omitempty"`
	// Admitted: efficiency met the threshold (and, for the slot solver,
	// utility is positive). Chosen: this ad type was the candidate's best
	// admitted pick, or the slot solver's pick for a winner.
	Admitted bool `json:"admitted,omitempty"`
	Chosen   bool `json:"chosen,omitempty"`
}

// ExplainOffer is the offer a winning candidate would receive.
type ExplainOffer struct {
	AdType     int     `json:"ad_type"`
	Name       string  `json:"name"`
	Utility    float64 `json:"utility"`
	Efficiency float64 `json:"efficiency"`
	// Cost is the immediate charge (catalog cost, or the second-priced CPM
	// charge); ChargeECPM/Hold/Model mirror the committed Offer's auction
	// fields for billed campaigns.
	Cost       float64 `json:"cost"`
	ChargeECPM float64 `json:"charge_ecpm,omitempty"`
	Hold       float64 `json:"hold,omitempty"`
	Model      string  `json:"model,omitempty"`
	// Slot is the 0-based position of the offer among the arrival's
	// committed offers.
	Slot int `json:"slot"`
}

// explainSink is the scan's verdict recorder for Explain: the report being
// filled and, for every pass-A survivor in ar.cand order, its index in
// rep.Candidates.
type explainSink struct {
	rep *ExplainReport
	at  []int
}

// Explain runs the decision scan read-only over a hypothetical arrival and
// returns the per-candidate breakdown. Validation matches Arrive; capacity
// 0 returns an empty report (Arrive would only count the arrival).
func (b *Broker) Explain(a Arrival) (*ExplainReport, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	rep := &ExplainReport{Boost: 1, Candidates: []ExplainCandidate{}}
	if a.Capacity == 0 {
		return rep, nil
	}

	// Lock the same covering stripe interval an arrival would, in the same
	// ascending order, so explain serializes against live traffic exactly
	// like a real arrival — the breakdown is a consistent snapshot.
	maxR := b.maxRadius.Load()
	s0, s1 := b.stripes.Range(a.Loc.Y-maxR, a.Loc.Y+maxR)
	for i := s0; i <= s1; i++ {
		b.shards[i].mu.Lock()
	}
	defer func() {
		for i := s1; i >= s0; i-- {
			b.shards[i].mu.Unlock()
		}
	}()
	rep.StripeLo, rep.StripeHi = s0, s1

	var ar scanArena
	dir := b.gatherCandidates(&ar, a.Loc, s0, s1)
	rep.Gathered = len(ar.ids)
	// Room for every gathered id up front: the scan appends one entry per id
	// and keeps pointers into the slice while it does.
	rep.Candidates = make([]ExplainCandidate, 0, len(ar.ids))
	// The walk's feed-forward observations land in this copy, never in the
	// live bounds.
	gb := b.gamma.clone()
	rep.GammaMin, rep.GammaMax = gb.seen()
	rep.G = gb.g(b.cfg.G)
	b.scan(&ar, &a, dir, gb, &explainSink{rep: rep})
	return rep, nil
}

// explainOffer converts a priced winner to the report view.
func explainOffer(cd *candidate, adTypes []model.AdType, slot int) *ExplainOffer {
	out := &ExplainOffer{
		AdType: cd.AdType, Name: adTypes[cd.AdType].Name,
		Utility: cd.Utility, Efficiency: cd.Efficiency,
		Cost: cd.Cost, ChargeECPM: cd.ChargeECPM, Hold: cd.Hold, Slot: slot,
	}
	if cd.Model != model.BillingFixed {
		out.Model = cd.Model.String()
	}
	return out
}

// ServeExplain serves POST /v1/debug/explain: a hypothetical arrival in the
// /v1/arrivals request schema, the ExplainReport out. Decoding shares the
// API's funnel (1 MiB cap, strict fields, content-type contract).
func (b *Broker) ServeExplain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("method %s not allowed; allowed: POST", r.Method))
		return
	}
	var req arrivalRequest
	if !decode(w, r, &req) {
		return
	}
	rep, err := b.Explain(Arrival{
		Loc:       geo.Point{X: req.Loc.X, Y: req.Loc.Y},
		Capacity:  req.Capacity,
		ViewProb:  req.ViewProb,
		Interests: req.Interests,
		Hour:      req.Hour,
	})
	if err != nil {
		WriteError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, rep)
}

// ServeCampaignFunnel serves GET /v1/debug/campaigns/{id}/funnel: the
// campaign's decision-funnel counters. 404 funnel_disabled without
// Config.Funnel.Enabled, 404 not_found for unknown campaigns.
func (b *Broker) ServeCampaignFunnel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		WriteError(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Sprintf("method %s not allowed; allowed: GET, HEAD", r.Method))
		return
	}
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	fc, err := b.CampaignFunnel(id)
	if err != nil {
		if errors.Is(err, ErrFunnelDisabled) {
			WriteError(w, http.StatusNotFound, "funnel_disabled",
				"per-campaign funnel attribution is disabled; start the broker with the funnel enabled")
			return
		}
		status, code := statusFor(err)
		WriteError(w, status, code, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, fc)
}
