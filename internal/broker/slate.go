package broker

// Billing in the decision scan: MCKP slot fill and eCPM-normalized auction
// pricing.
//
// Every campaign bids in eCPM (model.Billing.BidECPM) and is admitted on
// efficiency per billing-expected cost; a fixed-cost campaign bids its
// catalog cost ×1000 with no reserve, so its arithmetic is the seed's.
// While no billed campaign exists, or at a_i = 1, each candidate keeps one
// best item and keepBest (arena.go) fills the slots. Once billing is active,
// an arrival with a_i ≥ 2 makes each candidate an MCKP class of its
// threshold-admitted items priced at expected cost, and knapsack.SlotSolver
// fills up to a_i slots (solveSlots).
//
// Pricing: each winner pays the displaced runner-up's bid in eCPM, floored
// at its own reserve and capped at its own bid (second price with reserve).
// Fixed-billing winners bypass the auction and are charged their catalog
// cost.
//
// Money safety: affordability is checked against the raw per-event cost
// t.Cost (not the expected cost), and every possible charge — catalog cost,
// CPM second price /1000, deferred hold charge/1000/rate — is ≤ t.Cost, so
// with remaining = budget − spent − escrow the invariant
// spent + escrow ≤ budget (+ the 1e-12 admission slack) holds through
// offer, conversion (escrow → spent, 1:1) and expiry (escrow released).

import (
	"muaa/internal/model"
)

// slateItem mirrors one solver item: the admitted (candidate, ad-type)
// choice with its utility, expected-cost efficiency and eCPM bid. Flat and
// index-aligned with the SlotSolver's item order via scanArena.classItem0.
type slateItem struct {
	adType int32
	util   float64
	eff    float64
	bid    float64
}

// solveSlots resolves the billed a_i ≥ 2 walk: the slot solver fills up to
// capacity slots from the MCKP classes pass B built, in decreasing
// best-item efficiency — the currency keepBest ranks by. The first class
// denied a slot prices every winner: its hypothetical pick is the bid the
// slate displaced.
func (b *Broker) solveSlots(ar *scanArena, capacity int, tally *scanTally, rec bool, ex *explainSink) {
	s := &ar.slot
	if s.Classes() == 0 {
		return
	}
	s.Solve(capacity)
	runnerBid := 0.0
	if rc := s.Runner(); rc >= 0 {
		if rp := s.RunnerPick(); rp >= 0 {
			runnerBid = ar.items[int(ar.classItem0[rc])+rp].bid
		}
	}
	for _, ci := range s.Order() {
		it := &ar.items[int(ar.classItem0[ci])+s.Pick(int(ci))]
		c := ar.cand[ar.classCand[ci]]
		ar.cands = append(ar.cands,
			priceSlateOffer(c, b.cfg.AdTypes, int(it.adType), it.util, it.eff, it.bid, runnerBid))
	}
	tally.n[dispDisplaced] = uint64(s.Classes() - len(s.Order()))
	if !rec && ex == nil {
		return
	}
	// Resolution in class order: slot winners were offered, the classes the
	// solver left out were displaced.
	ar.classSlot = ar.classSlot[:0]
	for range ar.classCand {
		ar.classSlot = append(ar.classSlot, -1)
	}
	for slot, ci := range s.Order() {
		ar.classSlot[ci] = int32(slot)
	}
	for ci, slot := range ar.classSlot {
		var cd *candidate
		if slot >= 0 {
			cd = &ar.cands[slot]
		}
		b.award(ar, rec, ex, ar.classCand[ci], cd, int(slot))
	}
}

// priceSlateOffer builds the committed-offer candidate for one winner.
// Fixed billing bypasses the auction: the offer carries the catalog cost
// alone, with every auction field zero. Auction billing pays
// min(own bid, max(reserve, runner-up bid)) in eCPM — charged now for CPM,
// escrowed as a per-event hold for CPC/CPA.
func priceSlateOffer(c *campaign, adTypes []model.AdType, k int, util, eff, bid, runnerBid float64) candidate {
	cd := candidate{
		Offer: Offer{Campaign: c.id, AdType: k, Utility: util, Efficiency: eff},
		c:     c,
	}
	bi := c.billing
	if bi.Model == model.BillingFixed {
		cd.Cost = adTypes[k].Cost
		return cd
	}
	charge := runnerBid
	if bi.ReserveECPM > charge {
		charge = bi.ReserveECPM
	}
	if bid < charge {
		charge = bid
	}
	cd.ChargeECPM = charge
	cd.Model = bi.Model
	if bi.Model.Deferred() {
		cd.Hold = charge / 1000 / bi.EventRate
	} else {
		cd.Cost = charge / 1000
	}
	return cd
}

// commit charges every winner in ar.cands and appends the offers to dst.
// Deferred (CPC/CPA) winners register in the escrow table, which assigns the
// offer ID conversion events reference, instead of spending; every other
// charge is counted as revenue under its billing model. Caller still holds
// the stripe locks, which cover every winner's owning shard, so load+store
// is a safe read-modify-write.
func (b *Broker) commit(ar *scanArena, dst []Offer) []Offer {
	m := b.metrics
	bl := b.billing
	var dir []*campaign
	for i := range ar.cands {
		cd := &ar.cands[i]
		if cd.Hold > 0 {
			bl.mu.Lock()
			cd.ID = bl.holdLocked(cd.c, cd.Model, cd.Hold)
			cd.c.escrow.Store(cd.c.escrow.Load() + cd.Hold)
			bl.held.Add(cd.Hold)
			if len(bl.open) > bl.maxOpen {
				if dir == nil {
					dir = *b.dir.Load()
				}
				bl.evictLocked(dir)
			}
			bl.mu.Unlock()
		} else {
			bl.revenue[cd.Model].Add(cd.Cost)
		}
		oldSpent := cd.c.spent.Load()
		newSpent := oldSpent + cd.Cost
		cd.c.spent.Store(newSpent)
		b.spent.Add(cd.Cost)
		b.utility.Add(cd.Utility)
		b.offers.Add(1)
		dst = append(dst, cd.Offer)
		if m != nil {
			m.offersByType[cd.AdType].Inc()
			// Exhaustion event: this commit pushed the remaining budget
			// below the cheapest ad type, so the campaign can serve nothing
			// further until a top-up.
			budget := cd.c.budget.Load()
			if budget-oldSpent >= b.minAdCost && budget-newSpent < b.minAdCost {
				m.exhaustedEvents.Inc()
			}
		}
	}
	return dst
}
