package broker

// Explain-replay tests: the report must predict an immediately-following
// Arrive exactly (offers field for field, unbilled and billed, single-slot
// and slot-solver), must be provably read-only (golden replay transcripts
// stay byte-identical with an explain interleaved before every arrival),
// must stay field-for-field pinned by its own golden, and the HTTP surface
// must honor the API's envelope contract.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muaa/internal/core"
	"muaa/internal/geo"
	"muaa/internal/model"
	"muaa/internal/obs"
	"muaa/internal/stats"
	"muaa/internal/workload"
)

// explainConserved asserts every candidate has a disposition and the
// dispositions partition the gathered set, mirroring the funnel invariant.
func explainConserved(t *testing.T, rep *ExplainReport) {
	t.Helper()
	if len(rep.Candidates) != rep.Gathered {
		t.Fatalf("report has %d candidates, gathered %d", len(rep.Candidates), rep.Gathered)
	}
	offered := 0
	for i := range rep.Candidates {
		c := &rep.Candidates[i]
		known := false
		for _, n := range dispositionNames {
			if c.Disposition == n {
				known = true
				break
			}
		}
		if !known {
			t.Fatalf("candidate %d has unknown disposition %q", c.Campaign, c.Disposition)
		}
		if c.Disposition == dispositionNames[dispOffered] {
			offered++
			if c.Offer == nil {
				t.Fatalf("offered candidate %d has no offer", c.Campaign)
			}
		} else if c.Offer != nil {
			t.Fatalf("candidate %d disposed %q but carries an offer", c.Campaign, c.Disposition)
		}
	}
	if offered != rep.Offered {
		t.Fatalf("report Offered %d but %d candidates marked offered", rep.Offered, offered)
	}
}

// matchPrediction asserts the committed offers equal the report's predicted
// winners, in slot order, field for field.
func matchPrediction(t *testing.T, op int, rep *ExplainReport, offers []Offer) {
	t.Helper()
	if rep.Offered != len(offers) {
		t.Fatalf("op %d: explain predicted %d offers, arrive produced %d\nreport: %+v\noffers: %+v",
			op, rep.Offered, len(offers), rep, offers)
	}
	bySlot := make([]*ExplainCandidate, len(offers))
	for i := range rep.Candidates {
		c := &rep.Candidates[i]
		if c.Offer == nil {
			continue
		}
		if c.Offer.Slot < 0 || c.Offer.Slot >= len(offers) || bySlot[c.Offer.Slot] != nil {
			t.Fatalf("op %d: bad or duplicate slot %d (campaign %d)", op, c.Offer.Slot, c.Campaign)
		}
		bySlot[c.Offer.Slot] = c
	}
	for slot, o := range offers {
		c := bySlot[slot]
		if c == nil {
			t.Fatalf("op %d: no predicted winner for slot %d", op, slot)
		}
		eo := c.Offer
		wantModel := ""
		if o.Model != model.BillingFixed {
			wantModel = o.Model.String()
		}
		if c.Campaign != o.Campaign || eo.AdType != o.AdType ||
			eo.Utility != o.Utility || eo.Efficiency != o.Efficiency ||
			eo.Cost != o.Cost || eo.ChargeECPM != o.ChargeECPM ||
			eo.Hold != o.Hold || eo.Model != wantModel {
			t.Fatalf("op %d slot %d: predicted {c=%d %+v}, committed %+v",
				op, slot, c.Campaign, eo, o)
		}
	}
}

// explainCase is one seeded traffic stream the explain tests replay.
type explainCase struct {
	name string
	cfg  Config
	load workload.BrokerLoadConfig
}

// explainCases covers the unbilled fleet (default, pacing, fixed g), the
// billed single-slot auction, and the billed MCKP slot solver.
func explainCases() []explainCase {
	return []explainCase{
		{"legacy", Config{AdTypes: workload.DefaultAdTypes()},
			workload.DefaultBrokerLoadConfig(24, 1500, 11)},
		{"paced", Config{AdTypes: workload.DefaultAdTypes(), Pacing: 1.25},
			workload.DefaultBrokerLoadConfig(24, 1500, 12)},
		{"fixed_g", Config{AdTypes: workload.DefaultAdTypes(), G: 8},
			workload.DefaultBrokerLoadConfig(24, 1500, 13)},
		{"slate_single", Config{AdTypes: workload.DefaultAdTypes()},
			func() workload.BrokerLoadConfig {
				c := workload.BilledBrokerLoadConfig(24, 1500, 14)
				c.Capacity = stats.Range{Lo: 1, Hi: 1}
				return c
			}()},
		{"slate_slots", Config{AdTypes: workload.DefaultAdTypes()},
			func() workload.BrokerLoadConfig {
				c := workload.BilledBrokerLoadConfig(24, 1500, 15)
				c.Capacity = stats.Range{Lo: 2, Hi: 4}
				return c
			}()},
	}
}

// replayExplained replays tc's stream with an Explain before every
// arrival, handing each report and the offers the following Arrive
// committed to check. Returns the number of arrivals replayed.
func replayExplained(t *testing.T, tc explainCase, check func(op int, rep *ExplainReport, offers []Offer)) int {
	t.Helper()
	tc.cfg.Funnel.Enabled = true
	b, err := New(tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs, ops, err := workload.BrokerLoad(tc.load)
	if err != nil {
		t.Fatal(err)
	}
	registerLoad(t, b, specs)
	var open []uint64
	arrivals := 0
	for i, op := range ops {
		if op.Kind != workload.OpArrival {
			applyBilledOp(t, b, op, &open)
			continue
		}
		a := Arrival{Loc: op.Loc, Capacity: op.Capacity, ViewProb: op.ViewProb,
			Interests: op.Interests, Hour: op.Hour}
		rep, err := b.Explain(a)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		offers, err := b.Arrive(a)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		check(i, rep, offers)
		for _, o := range offers {
			if o.ID != 0 {
				open = append(open, o.ID)
			}
		}
		arrivals++
	}
	return arrivals
}

// TestExplainPredictsArrive replays seeded mixed traffic and, before every
// arrival, asks Explain for its prediction: the immediately-following Arrive
// must commit exactly the predicted offers. Covers the unbilled fleet,
// pacing, fixed g, the billed single-slot auction, and the MCKP slots path.
func TestExplainPredictsArrive(t *testing.T) {
	for _, tc := range explainCases() {
		t.Run(tc.name, func(t *testing.T) {
			slate := false
			arrivals := replayExplained(t, tc, func(op int, rep *ExplainReport, offers []Offer) {
				explainConserved(t, rep)
				matchPrediction(t, op, rep, offers)
				slate = slate || rep.Slate
			})
			if arrivals == 0 {
				t.Fatal("load produced no arrivals")
			}
			if wantSlate := tc.load.CPMFrac > 0; slate != wantSlate {
				t.Fatalf("billing active = %v, want %v", slate, wantSlate)
			}
		})
	}
}

// TestExplainMatchesGolden pins the full Explain report, field for field,
// over every explainCases stream: one JSON line per arrival. Regenerate with
// `go test ./internal/broker -run ExplainMatchesGolden -update` only for an
// intentional change to the report.
func TestExplainMatchesGolden(t *testing.T) {
	var sb strings.Builder
	for _, tc := range explainCases() {
		// The stripe interval is reported, so pin the shard count instead of
		// letting it follow GOMAXPROCS.
		tc.cfg.Shards = 4
		replayExplained(t, tc, func(op int, rep *ExplainReport, _ []Offer) {
			line, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%s %d %s\n", tc.name, op, line)
		})
	}
	got := sb.String()
	path := filepath.Join("testdata", "explain.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		i := firstDiff(got, string(want))
		line, _, _ := strings.Cut(got[strings.LastIndexByte(got[:i], '\n')+1:], "\n")
		t.Fatalf("explain reports diverged from the golden (%d vs %d bytes); first differing line:\n%s",
			len(got), len(want), line)
	}
}

// TestReplayMatchesGoldenExplainInterleaved is the read-only pin: replaying
// the golden stream with an Explain of every arrival injected immediately
// before its Arrive must leave the transcript byte-identical — explain
// commits no spend, no γ observation, no counter, no funnel attribution.
func TestReplayMatchesGoldenExplainInterleaved(t *testing.T) {
	for _, tc := range []struct {
		name   string
		golden string
		cfg    Config
	}{
		{"default", "replay_default.golden", Config{AdTypes: workload.DefaultAdTypes()}},
		{"paced", "replay_paced.golden", Config{AdTypes: workload.DefaultAdTypes(), Pacing: 1.25}},
		{"instrumented_funnel", "replay_default.golden",
			Config{AdTypes: workload.DefaultAdTypes(), Metrics: obs.NewRegistry(),
				Funnel: FunnelConfig{Enabled: true}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := replayTranscriptVia(t, tc.cfg, 32, 3000, 42,
				func(b *Broker) func(Arrival) ([]Offer, error) {
					return func(a Arrival) ([]Offer, error) {
						if _, err := b.Explain(a); err != nil {
							return nil, err
						}
						return b.Arrive(a)
					}
				})
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			if got != string(want) {
				t.Fatalf("interleaved explain changed the replay transcript (%d vs %d bytes, first diff at byte %d)",
					len(got), len(want), firstDiff(got, string(want)))
			}
		})
	}
}

// TestExplainReportsThresholdG pins ExplainReport.G to the g φ actually
// used: the tuning rule's 2e floor when the observed bounds are degenerate
// (γ_min == γ_max) and when their ratio is below 2, where Stats.G keeps
// reporting the unclamped e·γ_max/γ_min estimate.
func TestExplainReportsThresholdG(t *testing.T) {
	for _, tc := range []struct {
		name  string
		views []float64 // viewProbs of the warm-up arrivals
	}{
		{"degenerate", []float64{0.5}},
		{"ratio_below_2", []float64{0.5, 0.75}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := New(Config{AdTypes: []model.AdType{{Name: "banner", Cost: 1, Effect: 1}}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 1e6, []float64{1, 0.2, 0.4}); err != nil {
				t.Fatal(err)
			}
			a := Arrival{Loc: geo.Point{X: 0.55, Y: 0.5}, Capacity: 1,
				Interests: []float64{0.9, 0.1, 0.5}, Hour: 12}
			for _, v := range tc.views {
				a.ViewProb = v
				if _, err := b.Arrive(a); err != nil {
					t.Fatal(err)
				}
			}
			st := b.Stats()
			ratio := st.GammaMax / st.GammaMin
			if ratio >= 2 || (len(tc.views) > 1) != (ratio > 1) {
				t.Fatalf("warm-up left γ ratio %v", ratio)
			}
			rep, err := b.Explain(a)
			if err != nil {
				t.Fatal(err)
			}
			if rep.G != 2*math.E {
				t.Fatalf("report g = %v, want the clamped 2e", rep.G)
			}
			if len(rep.Candidates) != 1 {
				t.Fatalf("report has %d candidates, want 1", len(rep.Candidates))
			}
			c := rep.Candidates[0]
			phi := core.AdaptiveThreshold{GammaMin: rep.GammaMin, G: rep.G}
			if want := phi.Value(c.Delta); c.Threshold != want {
				t.Fatalf("candidate threshold %v, want φ(δ) = %v at the reported g", c.Threshold, want)
			}
			if wantG := math.E * ratio; ratio > 1 && st.G != wantG {
				t.Fatalf("Stats.G = %v, want the unclamped estimate %v", st.G, wantG)
			}
		})
	}
}

func TestExplainValidationAndEdges(t *testing.T) {
	b := newTestBroker(t)
	if _, err := b.Explain(Arrival{Capacity: -1, ViewProb: 0.5}); err == nil {
		t.Error("negative capacity must be rejected")
	}
	if _, err := b.Explain(Arrival{Capacity: 1, ViewProb: 1.5}); err == nil {
		t.Error("view probability > 1 must be rejected")
	}
	rep, err := b.Explain(Arrival{Capacity: 0, ViewProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gathered != 0 || rep.Offered != 0 || len(rep.Candidates) != 0 {
		t.Errorf("capacity-0 report = %+v, want empty", rep)
	}
	// No campaigns anywhere: an empty, well-formed report.
	rep, err = b.Explain(Arrival{Loc: geo.Point{X: 0.5, Y: 0.5}, Capacity: 2, ViewProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gathered != 0 || rep.Slate {
		t.Errorf("empty-fleet report = %+v", rep)
	}
}

// TestServeExplainHTTP pins the endpoint contract: POST-only with an Allow
// header, the shared decode funnel (strict fields, content type, body cap),
// and a well-formed report on success.
func TestServeExplainHTTP(t *testing.T) {
	b := funnelBroker(t, Config{AdTypes: workload.DefaultAdTypes()})
	if _, err := b.RegisterCampaign(geo.Point{X: 0.5, Y: 0.5}, 0.2, 50, []float64{1, 0, 0.3}); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/debug/explain", b.ServeExplain)
	mux.HandleFunc("/v1/debug/campaigns/{id}/funnel", b.ServeCampaignFunnel)

	do := func(method, path, ctype, body string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec
	}
	wantEnvelope := func(rec *httptest.ResponseRecorder, status int, code string) {
		t.Helper()
		if rec.Code != status {
			t.Fatalf("status %d, want %d (body %s)", rec.Code, status, rec.Body)
		}
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("non-JSON error body %q: %v", rec.Body, err)
		}
		if env.Error.Code != code {
			t.Fatalf("error code %q, want %q", env.Error.Code, code)
		}
	}

	good := `{"loc":{"x":0.49,"y":0.51},"capacity":2,"viewProb":0.7,"interests":[0.9,0.1,0.3]}`
	rec := do("POST", "/v1/debug/explain", "application/json", good)
	if rec.Code != 200 {
		t.Fatalf("valid explain → %d: %s", rec.Code, rec.Body)
	}
	var rep ExplainReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("malformed report: %v", err)
	}
	if rep.Gathered != 1 || len(rep.Candidates) != 1 {
		t.Fatalf("report = %+v, want the one covering campaign", rep)
	}

	rec = do("GET", "/v1/debug/explain", "", "")
	if rec.Code != 405 || rec.Header().Get("Allow") != "POST" {
		t.Errorf("GET explain → %d Allow=%q, want 405 with Allow: POST", rec.Code, rec.Header().Get("Allow"))
	}
	wantEnvelope(do("POST", "/v1/debug/explain", "text/plain", good), 415, "unsupported_media_type")
	wantEnvelope(do("POST", "/v1/debug/explain", "application/json", `{"unknown":1}`), 400, "bad_request")
	wantEnvelope(do("POST", "/v1/debug/explain", "application/json", `{"capacity":-1,"viewProb":0.5}`), 400, "bad_request")
	wantEnvelope(do("POST", "/v1/debug/explain", "application/json",
		`{"capacity":1,`+strings.Repeat(" ", 1<<20)+`"viewProb":0.5}`), 413, "payload_too_large")

	// Funnel route: success, unknown id, bad id, method gate.
	rec = do("GET", "/v1/debug/campaigns/0/funnel", "", "")
	if rec.Code != 200 {
		t.Fatalf("funnel GET → %d: %s", rec.Code, rec.Body)
	}
	var fc FunnelCounts
	if err := json.Unmarshal(rec.Body.Bytes(), &fc); err != nil || fc.Campaign != 0 {
		t.Fatalf("funnel body %q: %v", rec.Body, err)
	}
	wantEnvelope(do("GET", "/v1/debug/campaigns/99/funnel", "", ""), 404, "not_found")
	wantEnvelope(do("GET", "/v1/debug/campaigns/zzz/funnel", "", ""), 400, "bad_request")
	rec = do("POST", "/v1/debug/campaigns/0/funnel", "application/json", "{}")
	if rec.Code != 405 || rec.Header().Get("Allow") != "GET, HEAD" {
		t.Errorf("POST funnel → %d Allow=%q, want 405 with Allow: GET, HEAD", rec.Code, rec.Header().Get("Allow"))
	}
}
