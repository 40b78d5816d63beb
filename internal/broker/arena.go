package broker

// The decision scan and its struct-of-arrays arena. Every arrival — serial,
// batched or explained — runs the same three steps over the same scratch:
//
//  1. gatherCandidates: grid probes into ids, sorted ascending — the global
//     scan order.
//  2. scan pass A: the cheap filters (paused, exhausted, tag mismatch,
//     non-positive score) and the per-candidate score/distance/base/δ terms
//     into flat arrays. This pass never reads γ state, so hoisting it out of
//     the threshold walk cannot change any admission decision.
//  3. scan pass B: the sequential O-AFA threshold walk. γ observations feed
//     forward from candidate i to candidate i+1's threshold, so this pass
//     must stay in candidate order. Each candidate keeps its best admitted
//     ad type; the best a_i candidates by efficiency win the slots
//     (keepBest). Once billing is active, an arrival with a_i ≥ 2 instead
//     feeds every admitted item to the MCKP slot solver (slate.go).
//
// The floating-point operation sequence is the one the original fused loop
// performed; the golden transcripts in determinism_test.go pin it.
//
// Ownership rule: an arrival (or batch) that locks the contiguous stripe
// interval [s0, s1] uses the arena of shard s0 — the lowest locked stripe.
// Any two lock sets that share a stripe overlap as intervals, so two holders
// can never pick the same lowest stripe while both hold it; the arena is
// therefore exclusively owned for the duration of the locks, with no
// synchronization beyond the stripe mutexes themselves. Explain scans a
// fresh arena of its own.

import (
	"cmp"
	"math"
	"slices"

	"muaa/internal/geo"
	"muaa/internal/knapsack"
	"muaa/internal/model"
	"muaa/internal/trace"
)

// scanArena is the per-stripe reusable scan scratch. All slices are grown by
// append and retained at high-water capacity; the model views and weights
// buffer are reused across candidates so scoring is allocation-free.
type scanArena struct {
	// ids is the gathered candidate id set, sorted ascending.
	ids []int32

	// Struct-of-arrays terms for candidates that survived the cheap filters,
	// indexed together: cand[i]'s Eq. 4 base value is base[i], its
	// budget-usage ratio delta[i], its pacing-capped spendable budget
	// remaining[i], its unspent, unescrowed budget headroom[i], and relief[i]
	// marks a guaranteed campaign behind its pro-rated delivery floor.
	cand      []*campaign
	base      []float64
	delta     []float64
	remaining []float64
	headroom  []float64
	relief    []bool

	// reps holds each candidate's best admitted item, awaiting keepBest.
	reps []slateRep

	// cands accumulates the priced winners awaiting commit.
	cands []candidate

	// fev accumulates per-candidate funnel dispositions for the post-scan
	// registry fold (see funnel.go); empty unless the broker's funnel is
	// enabled.
	fev []funnelEvent

	// Reused model views handed to the preference scorer, plus the Pearson
	// weights scratch (see model.PearsonPreference.ScoreScratch).
	customer model.Customer
	vendor   model.Vendor
	weights  []float64

	// Slot-solver scratch (see slate.go): the MCKP solver, its flat item
	// mirror, the class → candidate/first-item maps, and each class's slot
	// (-1 when the solver left it out).
	slot       knapsack.SlotSolver
	items      []slateItem
	classCand  []int32
	classItem0 []int32
	classSlot  []int32
}

// slateRep is one candidate's best admitted item: the ad type with the
// highest utility among those whose efficiency cleared the threshold.
type slateRep struct {
	ci   int32 // index into ar.cand
	k    int32
	util float64
	eff  float64
	bid  float64
}

// scanTally counts how the scan disposed of each gathered candidate. Folded
// into the metrics counters (and the trace's ScanCounts) after the scan so
// the loop body stays branch-light.
type scanTally struct {
	// gathered is the candidate count the grid probes returned — the top of
	// the decision funnel; n partitions it by disposition, except that
	// n[dispOffered] counts every admitted candidate, including those the
	// slot race then displaced (n[dispDisplaced]).
	gathered uint64
	n        [numDispositions]uint64
}

// add folds another tally into t (batch aggregation).
func (t *scanTally) add(o scanTally) {
	t.gathered += o.gathered
	for d := range t.n {
		t.n[d] += o.n[d]
	}
}

// counts converts the tally to the trace view.
func (t *scanTally) counts() trace.ScanCounts {
	return trace.ScanCounts{
		Gathered:       t.gathered,
		Displaced:      t.n[dispDisplaced],
		Offered:        t.n[dispOffered],
		Paused:         t.n[dispPaused],
		Exhausted:      t.n[dispExhausted],
		Mismatch:       t.n[dispTagMismatch],
		LowScore:       t.n[dispLowScore],
		Unaffordable:   t.n[dispUnaffordable],
		BelowThreshold: t.n[dispBelowThreshold],
		BelowReserve:   t.n[dispBelowReserve],
	}
}

// gatherCandidates probes the locked shards' grids for campaigns covering
// loc, sorts the ids ascending (global ID order — the same order the
// single-mutex broker scanned in), and returns the campaign directory.
// Loaded after the shard locks: any id a locked grid returned was inserted
// under that shard's lock, and its registration published the directory
// entry before the grid entry, so this load observes it.
func (b *Broker) gatherCandidates(ar *scanArena, loc geo.Point, s0, s1 int) []*campaign {
	ar.ids = ar.ids[:0]
	for i := s0; i <= s1; i++ {
		ar.ids = b.shards[i].grid.CoveredBy(ar.ids, loc)
	}
	slices.Sort(ar.ids)
	return *b.dir.Load()
}

// decide is the decision step of a live arrival, serial or batched: the scan
// against the broker's γ bounds, then the funnel fold while the stripe locks
// still own the arena (the event slice is arena scratch). The winners are
// left in ar.cands for commit.
func (b *Broker) decide(ar *scanArena, a *Arrival, dir []*campaign) scanTally {
	tally := b.scan(ar, a, dir, &b.gamma, nil)
	if b.funnel != nil {
		b.funnel.fold(ar)
	}
	return tally
}

// scan runs both passes over ar.ids, observing efficiencies into gb and
// leaving the priced winners in ar.cands. ex, when non-nil, records every
// candidate's verdict for Explain. Caller holds the stripe locks that
// produced ar.ids.
func (b *Broker) scan(ar *scanArena, a *Arrival, dir []*campaign, gb *gammaBounds, ex *explainSink) scanTally {
	var tally scanTally
	tally.gathered = uint64(len(ar.ids))
	// rec gates funnel attribution: one branch per disposition when enabled,
	// one nil check when not. Events partition ar.ids — every gathered id
	// lands in exactly one bucket (the conservation invariant pinned by
	// TestFunnelConservationSoak). Explain attributes nothing.
	rec := b.funnel != nil && ex == nil
	ar.fev = ar.fev[:0]
	cu := &ar.customer
	*cu = model.Customer{Loc: a.Loc, Capacity: a.Capacity, ViewProb: a.ViewProb,
		Interests: a.Interests, Arrival: a.Hour}
	ve := &ar.vendor
	ar.cand = ar.cand[:0]
	ar.base = ar.base[:0]
	ar.delta = ar.delta[:0]
	ar.remaining = ar.remaining[:0]
	ar.headroom = ar.headroom[:0]
	ar.relief = ar.relief[:0]
	ar.reps = ar.reps[:0]
	ar.cands = ar.cands[:0]

	// The controller's boost is loaded once per arrival so every candidate
	// sees the same threshold scaling (PacingStep only swaps it under full
	// shard quiescence, which the held locks exclude). The billing flag is
	// read under the locks too: a billed campaign visible in any held
	// shard's grid was inserted under that shard's lock after the flag
	// flipped.
	boost := 1.0
	if b.controller != nil {
		boost = b.phiBoost.Load()
	}
	billed := b.billing.active.Load()
	if ex != nil {
		ex.rep.Boost, ex.rep.Slate = boost, billed
	}

	// Pass A: filters and the γ-independent per-candidate terms.
	for _, id := range ar.ids {
		c := dir[id]
		var ec *ExplainCandidate
		if ex != nil {
			ex.rep.Candidates = append(ex.rep.Candidates, ExplainCandidate{Campaign: id})
			ec = &ex.rep.Candidates[len(ex.rep.Candidates)-1]
		}
		if c.paused.Load() {
			ar.reject(&tally, rec, id, dispPaused, ec)
			continue
		}
		budget := c.budget.Load()
		if budget <= 0 {
			ar.reject(&tally, rec, id, dispExhausted, ec)
			continue
		}
		if b.vectorPref && len(c.tags) != len(a.Interests) {
			// Mismatched taxonomies: preference undefined, not served.
			ar.reject(&tally, rec, id, dispTagMismatch, ec)
			continue
		}
		spent := c.spent.Load()
		*ve = model.Vendor{Loc: c.loc, Radius: c.radius, Budget: budget, Tags: c.tags}
		var s float64
		if b.vectorPref {
			// Devirtualized call with the arena's weights scratch: same
			// arithmetic as Preference.Score, zero allocations.
			s, ar.weights = b.pearson.ScoreScratch(cu, ve, a.Hour, ar.weights)
		} else {
			s = b.pref.Score(cu, ve, a.Hour)
		}
		if s <= 0 || math.IsNaN(s) {
			if ec != nil {
				ec.Score = s
			}
			ar.reject(&tally, rec, id, dispLowScore, ec)
			continue
		}
		if s > 1 {
			s = 1
		}
		d := a.Loc.Dist(c.loc)
		if d < b.minDist {
			d = b.minDist
		}
		base := a.ViewProb * s / d
		delta := spent / budget
		relief := c.guaranteed && c.floor > 0 && spent < c.floor*budget*(a.Hour/24)
		// Escrowed budget is committed money: it is unavailable to new
		// offers until the conversion lands or the hold expires. With no
		// escrow, budget − spent − 0 is bit-identical to budget − spent.
		escrow := c.escrow.Load()
		remaining := budget - spent - escrow
		headroom := remaining
		if b.cfg.Pacing > 0 {
			// Daily pacing cap: spend so far plus this ad must stay within
			// the hour's pro-rated allowance.
			allowance := b.cfg.Pacing * budget * a.Hour / 24
			if paced := allowance - spent; paced < remaining {
				remaining = paced
			}
		}
		if b.controller != nil {
			// Controller epoch cap: spend may not pass the allowance the last
			// PacingStep granted (+Inf when uncapped, so this is a no-op for
			// unthrottled campaigns).
			if paced := c.allowance.Load() - spent; paced < remaining {
				remaining = paced
			}
		}
		if ec != nil {
			*ec = ExplainCandidate{Campaign: id, Distance: d, Score: s, Delta: delta,
				Relief: relief, Base: base, Remaining: remaining, Headroom: headroom, Escrow: escrow}
			ex.at = append(ex.at, len(ex.rep.Candidates)-1)
		}
		ar.cand = append(ar.cand, c)
		ar.base = append(ar.base, base)
		ar.delta = append(ar.delta, delta)
		ar.remaining = append(ar.remaining, remaining)
		ar.headroom = append(ar.headroom, headroom)
		ar.relief = append(ar.relief, relief)
	}

	// Pass B: the sequential O-AFA threshold walk, in candidate order — each
	// candidate's threshold reads the γ bounds as updated by every earlier
	// candidate's observations. Efficiency divides by the billing-expected
	// cost, which is the catalog cost itself for fixed billing.
	slots := billed && a.Capacity >= 2
	if slots {
		ar.slot.Reset()
		ar.items = ar.items[:0]
		ar.classCand = ar.classCand[:0]
		ar.classItem0 = ar.classItem0[:0]
	}
	adTypes := b.cfg.AdTypes
	for i, c := range ar.cand {
		phi := gb.threshold(b.cfg.G, ar.delta[i])
		if boost != 1 {
			phi *= boost
		}
		if ar.relief[i] {
			// Guaranteed delivery behind the pro-rated floor: relax admission
			// so the campaign catches up before the penalty accrues. The
			// relief factor keeps φ positive — the threshold is softened, not
			// suspended.
			phi *= guaranteeRelief
		}
		var ec *ExplainCandidate
		if ex != nil {
			ec = &ex.rep.Candidates[ex.at[i]]
			ec.Threshold = phi
			ec.Bids = make([]ExplainBid, 0, len(adTypes))
		}
		bi := c.billing
		base, remaining := ar.base[i], ar.remaining[i]
		bestK, bestU, bestEff, bestBid := -1, 0.0, 0.0, 0.0
		affordable, aboveReserve, opened := false, false, false
		for k, t := range adTypes {
			var eb *ExplainBid
			if ec != nil {
				ec.Bids = append(ec.Bids, ExplainBid{AdType: k, Name: t.Name, Cost: t.Cost})
				eb = &ec.Bids[k]
			}
			if t.Cost > remaining+1e-12 {
				continue
			}
			affordable = true
			bid := bi.BidECPM(t.Cost)
			if eb != nil {
				eb.Affordable = true
				if billed {
					eb.BidECPM = bid
				}
			}
			if bid < bi.ReserveECPM {
				continue // reserve-priced out of the auction
			}
			aboveReserve = true
			expCost := bi.ExpectedCost(t.Cost)
			util := base * t.Effect
			eff := util / expCost
			gb.observe(eff)
			if eb != nil {
				eb.AboveReserve = billed
				eb.Utility, eb.Efficiency = util, eff
			}
			if eff < phi {
				continue
			}
			if slots {
				if util <= 0 {
					continue // the slot solver rejects zero-profit items
				}
				// Every admitted item joins the candidate's MCKP class.
				if !opened {
					opened = true
					ar.slot.Begin()
					ar.classCand = append(ar.classCand, int32(i))
					ar.classItem0 = append(ar.classItem0, int32(len(ar.items)))
				}
				ar.slot.Item(expCost, util)
				ar.items = append(ar.items, slateItem{adType: int32(k), util: util, eff: eff, bid: bid})
			} else if util > bestU {
				bestK, bestU, bestEff, bestBid = k, util, eff, bid
			}
			if eb != nil {
				eb.Admitted = true
			}
		}
		switch {
		case opened:
			tally.n[dispOffered]++
		case bestK >= 0:
			tally.n[dispOffered]++
			ar.reps = append(ar.reps, slateRep{
				ci: int32(i), k: int32(bestK), util: bestU, eff: bestEff, bid: bestBid,
			})
			if ec != nil {
				ec.Bids[bestK].Chosen = true
			}
		case aboveReserve:
			ar.reject(&tally, rec, c.id, dispBelowThreshold, ec)
		case affordable:
			ar.reject(&tally, rec, c.id, dispBelowReserve, ec)
		case ar.headroom[i] < b.minAdCost:
			// Not even the cheapest ad fits the unspent budget: the
			// campaign is spent out until a top-up.
			ar.reject(&tally, rec, c.id, dispExhausted, ec)
		default:
			// Unspent budget exists but the pacing allowance withheld it.
			ar.reject(&tally, rec, c.id, dispUnaffordable, ec)
		}
	}
	if slots {
		b.solveSlots(ar, a.Capacity, &tally, rec, ex)
	} else {
		b.keepBest(ar, a.Capacity, &tally, rec, ex)
	}
	return tally
}

// keepBest resolves the single-choice walk: the best a_i reps by (efficiency
// desc, campaign asc) win the slots, in that order, and the first displaced
// rep's bid prices the auction. Reps ascend by campaign, so sorting only on
// overflow keeps the offers in campaign order when nothing is trimmed. At
// a_i = 1 this is the winner/runner-up scan of a second-price auction.
func (b *Broker) keepBest(ar *scanArena, capacity int, tally *scanTally, rec bool, ex *explainSink) {
	reps := ar.reps
	runnerBid := 0.0
	if len(reps) > capacity {
		// Total order (ci ascends with the campaign id and is unique), so
		// every sort algorithm yields the same winners in the same order.
		slices.SortFunc(reps, func(x, y slateRep) int {
			if x.eff != y.eff {
				if x.eff > y.eff {
					return -1
				}
				return 1
			}
			return cmp.Compare(x.ci, y.ci)
		})
		runnerBid = reps[capacity].bid
		tally.n[dispDisplaced] = uint64(len(reps) - capacity)
	}
	for j := range reps {
		r := &reps[j]
		if j >= capacity {
			b.award(ar, rec, ex, r.ci, nil, 0)
			continue
		}
		ar.cands = append(ar.cands,
			priceSlateOffer(ar.cand[r.ci], b.cfg.AdTypes, int(r.k), r.util, r.eff, r.bid, runnerBid))
		b.award(ar, rec, ex, r.ci, &ar.cands[len(ar.cands)-1], j)
	}
}

// reject records one candidate's non-offer disposition: the tally, the
// funnel event when attribution is on, and the verdict when explained.
func (ar *scanArena) reject(t *scanTally, rec bool, id int32, d funnelDisposition, ec *ExplainCandidate) {
	t.n[d]++
	if rec {
		ar.fev = append(ar.fev, funnelEvent{id: id, disp: d})
	}
	if ec != nil {
		ec.Disposition = dispositionNames[d]
	}
}

// award records one admitted candidate's slot outcome — offered when cd is
// its priced offer at slot, displaced when cd is nil — as a funnel event
// and, when explained, as the verdict.
func (b *Broker) award(ar *scanArena, rec bool, ex *explainSink, ci int32, cd *candidate, slot int) {
	d := dispDisplaced
	if cd != nil {
		d = dispOffered
	}
	if rec {
		ar.fev = append(ar.fev, funnelEvent{id: ar.cand[ci].id, disp: d})
	}
	if ex != nil {
		ec := &ex.rep.Candidates[ex.at[ci]]
		ec.Disposition = dispositionNames[d]
		if cd != nil {
			ec.Bids[cd.AdType].Chosen = true
			ec.Offer = explainOffer(cd, b.cfg.AdTypes, slot)
			ex.rep.Offered++
		}
	}
}
