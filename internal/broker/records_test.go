package broker

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"muaa/internal/geo"
)

// encodeV1Arrival hand-builds a legacy type-4 arrival record (γ bounds +
// offers, no customer block) the way pre-v2 brokers wrote it.
func encodeV1Arrival(gmin, gmax float64, offers []Offer) []byte {
	buf := []byte{recArrival}
	buf = appendF64(buf, gmin)
	buf = appendF64(buf, gmax)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(offers)))
	for i := range offers {
		o := &offers[i]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o.Campaign))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o.AdType))
		buf = appendF64(buf, o.Cost)
		buf = appendF64(buf, o.Utility)
	}
	return buf
}

// TestDecodeRecordV1Arrival: legacy records decode with HasCustomer false
// and the full offer list intact — old WALs stay replayable and auditable.
func TestDecodeRecordV1Arrival(t *testing.T) {
	offers := []Offer{
		{Campaign: 3, AdType: 1, Cost: 0.25, Utility: 1.5},
		{Campaign: 7, AdType: 0, Cost: 0.125, Utility: 0.75},
	}
	d, err := DecodeRecord(encodeV1Arrival(0.5, 4.0, offers))
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != RecordArrival || d.HasCustomer {
		t.Fatalf("v1 arrival decoded as %v HasCustomer=%v", d.Kind, d.HasCustomer)
	}
	if d.GammaMin != 0.5 || d.GammaMax != 4.0 {
		t.Fatalf("γ bounds %g/%g", d.GammaMin, d.GammaMax)
	}
	if !reflect.DeepEqual(d.Offers, offers) {
		t.Fatalf("offers %+v", d.Offers)
	}
}

// TestDecodeRecordV2RoundTrip: logArrival's encoding decodes back to the
// arrival and offers it was given, bit for bit.
func TestDecodeRecordV2RoundTrip(t *testing.T) {
	b := newTestBroker(t)
	a := Arrival{
		Loc:       geo.Point{X: 0.25, Y: 0.75},
		Capacity:  3,
		ViewProb:  0.625,
		Interests: []float64{0.1, 0.9, 0.5},
		Hour:      13.5,
	}
	offers := []Offer{{Campaign: 2, AdType: 3, Cost: 1.0 / 3.0, Utility: math.Pi}}

	// Capture the bytes logArrival would append by encoding through the same
	// path: build the record manually with the broker's current γ bits.
	bp := recPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, recArrivalV2)
	buf = binary.LittleEndian.AppendUint64(buf, b.gamma.min.bits.Load())
	buf = binary.LittleEndian.AppendUint64(buf, b.gamma.max.bits.Load())
	buf = appendF64(buf, a.Loc.X)
	buf = appendF64(buf, a.Loc.Y)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.Capacity))
	buf = appendF64(buf, a.ViewProb)
	buf = appendF64(buf, a.Hour)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.Interests)))
	for _, v := range a.Interests {
		buf = appendF64(buf, v)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(offers)))
	for i := range offers {
		o := &offers[i]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o.Campaign))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(o.AdType))
		buf = appendF64(buf, o.Cost)
		buf = appendF64(buf, o.Utility)
	}
	rec := append([]byte(nil), buf...)
	*bp = buf
	recPool.Put(bp)

	d, err := DecodeRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != RecordArrivalV2 || !d.HasCustomer {
		t.Fatalf("kind %v HasCustomer=%v", d.Kind, d.HasCustomer)
	}
	if !reflect.DeepEqual(d.Customer, a) {
		t.Fatalf("customer %+v != %+v", d.Customer, a)
	}
	if !reflect.DeepEqual(d.Offers, offers) {
		t.Fatalf("offers %+v", d.Offers)
	}
	// Fresh broker: γ min is +Inf, max is 0 — the decoded floats must carry
	// those exact values through the bits round-trip.
	if !math.IsInf(d.GammaMin, 1) || d.GammaMax != 0 {
		t.Fatalf("γ bounds %g/%g", d.GammaMin, d.GammaMax)
	}
}

// TestDecodeSnapshotRoundTrip: encodeSnapshot → DecodeSnapshot preserves
// every accumulator bit and campaign field.
func TestDecodeSnapshotRoundTrip(t *testing.T) {
	b := newTestBroker(t)
	id, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 10, []float64{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetPaused(id, true); err != nil {
		t.Fatal(err)
	}
	b.arrivals.Store(42)
	b.offers.Store(7)
	b.utility.bits.Store(math.Float64bits(3.75))
	b.spent.bits.Store(math.Float64bits(1.25))

	s, err := DecodeSnapshot(b.encodeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if s.Arrivals != 42 || s.Offers != 7 {
		t.Fatalf("counters %d/%d", s.Arrivals, s.Offers)
	}
	if math.Float64frombits(s.UtilityBits) != 3.75 || math.Float64frombits(s.SpentBits) != 1.25 {
		t.Fatal("accumulator bits lost")
	}
	if len(s.Campaigns) != 1 {
		t.Fatalf("campaigns %d", len(s.Campaigns))
	}
	c := &s.Campaigns[0]
	if c.ID != id || !c.Paused || c.Budget() != 10 || c.Radius != 0.2 ||
		!reflect.DeepEqual(c.Tags, []float64{1, 0, 1}) {
		t.Fatalf("campaign %+v", c)
	}
}

// TestDecodeRecordMalformed: decoders are total — truncated, trailing-junk
// and unknown-type payloads error, never panic.
func TestDecodeRecordMalformed(t *testing.T) {
	valid := encodeV1Arrival(1, 2, []Offer{{Campaign: 1, AdType: 0, Cost: 1, Utility: 1}})
	cases := map[string][]byte{
		"empty":        nil,
		"unknown type": {99, 0, 0},
		"truncated":    valid[:len(valid)-3],
		"trailing":     append(append([]byte(nil), valid...), 0xFF),
		"huge count":   {recArrival, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF},
	}
	for name, rec := range cases {
		if _, err := DecodeRecord(rec); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if _, err := DecodeSnapshot([]byte{snapshotV1, 1, 2}); err == nil {
		t.Error("truncated v1 snapshot: no error")
	}
	if _, err := DecodeSnapshot([]byte{snapshotV2, 1, 2}); err == nil {
		t.Error("truncated v2 snapshot: no error")
	}
	if _, err := DecodeSnapshot([]byte{0xEE}); err == nil {
		t.Error("bad version: no error")
	}
}
