package experiments

import (
	"strings"
	"testing"
)

// TestDeltaSweepReductionFloor is the delta-replication acceptance
// gate: at the small-write steady-state sweep point the v2 protocol
// must cut shipped bytes by at least half against the raw baseline — a
// floor asserted here, not just recorded in the bench artifact — and
// the full-rewrite point must show the adaptive raw fallback (near-raw
// wire bytes, never a blow-up past ~raw + per-record framing).
func TestDeltaSweepReductionFloor(t *testing.T) {
	bench := sharedDelta.get(t)
	if bench.SmallWriteSteadyReduction < 0.5 {
		t.Fatalf("small-write steady-state reduction = %.1f%%, want >= 50%%",
			100*bench.SmallWriteSteadyReduction)
	}
	for _, p := range bench.Points {
		if p.RawWireBytes <= 0 {
			t.Fatalf("ws=%d wb=%d: raw baseline %d, want > 0", p.WSSPages, p.WriteBytes, p.RawWireBytes)
		}
		if p.DeltaWireBytes >= p.RawWireBytes+p.RawWireBytes/100 {
			t.Errorf("ws=%d wb=%d: delta wire %d blows past raw %d — the adaptive fallback failed",
				p.WSSPages, p.WriteBytes, p.DeltaWireBytes, p.RawWireBytes)
		}
		if p.DedupWireBytes > p.DeltaWireBytes {
			t.Errorf("ws=%d wb=%d: dedup wire %d exceeds plain delta %d",
				p.WSSPages, p.WriteBytes, p.DedupWireBytes, p.DeltaWireBytes)
		}
	}
	// The small-write points must exercise every v2 opcode class in the
	// dedup arm: deltas (stamped pages), same (dirtied-but-unchanged
	// pages), and dups (pair-identical pages); the full-rewrite point
	// must exercise the raw fallback.
	small, full := bench.Points[0], bench.Points[len(bench.Points)-1]
	if small.Pages.DeltaPages == 0 || small.Pages.SamePages == 0 || small.Pages.DupPages == 0 {
		t.Errorf("small-write point left a dedup opcode unexercised: %+v", small.Pages)
	}
	if full.Pages.RawPages == 0 {
		t.Errorf("full-rewrite point never fell back to raw: %+v", full.Pages)
	}
}

// The delta benchmark drives the real controller with Workers=1 and a
// fixed seed, so its JSON rendering is byte-stable — `make bench-remus`
// regenerates BENCH_remus.json deterministically.
func TestDeltaSweepJSONDeterministic(t *testing.T) {
	a, err := marshal(sharedDelta.get(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := marshal(DeltaSweep())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("DeltaSweep JSON not deterministic across runs")
	}
	if !strings.Contains(string(a), "\"small_write_steady_reduction\"") {
		t.Fatalf("JSON missing headline field:\n%s", a)
	}
}

// The text rendering carries the headline line.
func TestDeltaExperimentText(t *testing.T) {
	text := rendered(t, "delta", sharedDelta.get(t).render())
	if !strings.Contains(text, "small-write steady-state dedup cut") {
		t.Fatalf("delta text missing headline summary:\n%s", text)
	}
}
