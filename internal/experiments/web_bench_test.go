package experiments

import (
	"strings"
	"testing"
)

// The web sweep measures ~200 full fleet replays per run; under the
// race detector that multiplies past the package test timeout without
// exercising any concurrency (the sweep is single-goroutine virtual
// time). The concurrent paths it drives get dedicated -race coverage
// in verify-quick and CI's traced SLO fleet run.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("full web sweep is too slow under the race detector; covered by the race-free run")
	}
}

// TestWebSweepAdaptiveBeatsStatics is the web-scale acceptance gate: at
// every VM-count sweep point the SLO-adaptive controller must serve at
// least as many users per host as every static arm at the same p99
// target, and it must strictly beat the best static arm on at least one
// sweep point — asserted here, not just recorded in the bench artifact.
// The 1-VM point must also clear a million closed-loop users per host,
// the scale the cohort generator exists to reach.
func TestWebSweepAdaptiveBeatsStatics(t *testing.T) {
	skipUnderRace(t)
	bench := sharedWeb.get(t)
	adaptive := make(map[int]int64, len(bench.Adaptive))
	for _, p := range bench.Adaptive {
		adaptive[p.VMs] = p.UsersPerHost
		if p.P99Ms > bench.TargetP99Ms {
			t.Errorf("%d VMs: adaptive p99 %.3fms exceeds target %.3fms",
				p.VMs, p.P99Ms, bench.TargetP99Ms)
		}
	}
	for _, p := range bench.Static {
		if got := adaptive[p.VMs]; got < p.UsersPerHost {
			t.Errorf("%d VMs: adaptive %d users/host below static arm %s at %d",
				p.VMs, got, p.Arm, p.UsersPerHost)
		}
	}
	strictWin := false
	for _, h := range bench.Headline {
		if h.AdaptiveUsersPerHost > h.BestStaticUsersPerHost {
			strictWin = true
		}
		if h.BestStaticUsersPerHost <= 0 {
			t.Errorf("%d VMs: no static arm passed any rung", h.VMs)
		}
	}
	if !strictWin {
		t.Error("adaptive never strictly beat the best static arm at any sweep point")
	}
	if got := adaptive[1]; got < 1_000_000 {
		t.Errorf("1 VM: adaptive serves %d users/host, want >= 1M", got)
	}
}

// The adaptive arm must actually steer: tuned knobs at the winning rung
// have to differ from the base configuration (otherwise the "adaptive"
// row is just the baseline measured twice).
func TestWebSweepAdaptiveSteers(t *testing.T) {
	skipUnderRace(t)
	bench := sharedWeb.get(t)
	base := webBaseConfig()
	for _, p := range bench.Adaptive {
		if p.SLOSteps == 0 {
			t.Errorf("%d VMs: controller took zero tuning steps", p.VMs)
		}
		if p.IntervalMs == ms(base.EpochInterval) && p.Workers == base.Workers {
			t.Errorf("%d VMs: steady-state knobs identical to base config (interval %.0fms, workers %d)",
				p.VMs, p.IntervalMs, p.Workers)
		}
	}
}

// The web benchmark runs the real controller and the cohort generator
// entirely in virtual time with fixed seeds, so its JSON rendering is
// byte-stable — `make bench-web` regenerates BENCH_web.json
// deterministically.
func TestWebSweepJSONDeterministic(t *testing.T) {
	skipUnderRace(t)
	a, err := marshal(sharedWeb.get(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := marshal(WebSweep())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("WebSweep JSON not deterministic across runs")
	}
	if !strings.Contains(string(a), "\"adaptive_gain\"") {
		t.Fatalf("JSON missing headline gain field:\n%s", a)
	}
}

// The text rendering carries the per-sweep-point headline comparison.
func TestWebExperimentText(t *testing.T) {
	skipUnderRace(t)
	text := rendered(t, "webscale", sharedWeb.get(t).render())
	if !strings.Contains(text, "vs best static") {
		t.Fatalf("webscale text missing headline comparison:\n%s", text)
	}
}
