package experiments

import (
	"strings"
	"testing"
)

// TestCoWSweepSublinearPause is the CoW acceptance gate: across a 64x
// working-set growth the eager commit's pause must grow with the set
// (it copies every dirty page under pause) while the CoW commit's
// pause stays near-flat (it only arms write faults under pause) — a
// floor asserted here, not just recorded in the bench artifact.
func TestCoWSweepSublinearPause(t *testing.T) {
	bench := sharedCoW.get(t)
	if bench.OffPauseGrowth < 3 {
		t.Fatalf("eager pause growth = %.2fx across the sweep, want >= 3x (linear in working set)",
			bench.OffPauseGrowth)
	}
	if bench.CowPauseGrowth >= 2 {
		t.Fatalf("cow pause growth = %.2fx across the sweep, want < 2x (near-flat)",
			bench.CowPauseGrowth)
	}
	for _, p := range bench.Points {
		if p.CowPauseMs >= p.OffPauseMs {
			t.Errorf("ws=%d: cow pause %.3fms not below eager %.3fms",
				p.WSSPages, p.CowPauseMs, p.OffPauseMs)
		}
		if p.ArmedPages == 0 || p.WriteFaults == 0 || p.DrainedPages == 0 {
			t.Errorf("ws=%d: steady state left a CoW path unexercised: %+v", p.WSSPages, p)
		}
	}
	// The headline claim: at the largest working set the CoW commit
	// cuts the pause by more than half.
	last := bench.Points[len(bench.Points)-1]
	if last.PauseReduction < 0.5 {
		t.Errorf("ws=%d: pause reduction %.1f%%, want >= 50%%",
			last.WSSPages, 100*last.PauseReduction)
	}
}

// The CoW benchmark drives the real controller with Workers=1 and a
// fixed seed, so its JSON rendering is byte-stable — `make bench-cow`
// regenerates BENCH_cow.json deterministically.
func TestCoWSweepJSONDeterministic(t *testing.T) {
	a, err := marshal(sharedCoW.get(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := marshal(CoWSweep())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("CoWSweep JSON not deterministic across runs")
	}
	if !strings.Contains(string(a), "\"cow_pause_growth\"") {
		t.Fatalf("JSON missing growth field:\n%s", a)
	}
}

// The text rendering carries the headline line.
func TestCoWExperimentText(t *testing.T) {
	text := rendered(t, "cow", sharedCoW.get(t).render())
	if !strings.Contains(text, "pause growth") {
		t.Fatalf("cow text missing growth summary:\n%s", text)
	}
}
