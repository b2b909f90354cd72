package experiments

import (
	"strings"
	"testing"
)

// TestScanSweepSteadyStateReduction is the scan-cache acceptance gate:
// once the cache is warm, the audit must issue at least 40% fewer
// map hypercalls than the per-epoch-mapping baseline, and the
// scan-phase virtual time must measurably drop — asserted here, not
// just recorded in the bench artifact.
func TestScanSweepSteadyStateReduction(t *testing.T) {
	bench, err := ScanSweep()
	if err != nil {
		t.Fatal(err)
	}
	if bench.SteadyMapReduction < 0.40 {
		t.Fatalf("steady-state map-hypercall reduction = %.1f%%, want >= 40%%",
			100*bench.SteadyMapReduction)
	}
	if bench.SteadyScanSpeedup <= 1 {
		t.Fatalf("steady-state scan speedup = %.3fx, want > 1x", bench.SteadyScanSpeedup)
	}
	for _, p := range bench.Points[bench.Warmup:] {
		if p.CachedMapCalls >= p.UncachedMapCalls {
			t.Errorf("epoch %d: cached maps %d not below uncached %d",
				p.Epoch, p.CachedMapCalls, p.UncachedMapCalls)
		}
		if p.CachedScanMs >= p.UncachedScanMs {
			t.Errorf("epoch %d: cached scan %.3fms not below uncached %.3fms",
				p.Epoch, p.CachedScanMs, p.UncachedScanMs)
		}
		if p.CachedHits == 0 {
			t.Errorf("epoch %d: warm cache took zero hits", p.Epoch)
		}
	}
}

// The scan benchmark drives the real controller with Workers=1 and a
// fixed seed, so its JSON rendering is byte-stable — `make bench-scan`
// regenerates BENCH_scan.json deterministically.
func TestScanSweepJSONDeterministic(t *testing.T) {
	a, err := marshal(ScanSweep())
	if err != nil {
		t.Fatal(err)
	}
	b, err := marshal(ScanSweep())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("ScanSweep JSON not deterministic across calls")
	}
	if !strings.Contains(string(a), "\"steady_state_map_reduction\"") {
		t.Fatalf("JSON missing steady-state field:\n%s", a)
	}
}

// The text rendering carries the headline line.
func TestScanExperimentText(t *testing.T) {
	text := run(t, "scan")
	if !strings.Contains(text, "steady state") {
		t.Fatalf("scan text missing steady-state summary:\n%s", text)
	}
}
