package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/guestos"
	"repro/internal/workload"
)

// Scan-path benchmark shape. Unlike the pause and fleet benchmarks
// (pure cost-model sweeps) this one runs the real controller: two
// identical guests execute the same seeded workload, one auditing
// through per-epoch mappings (the LibVMI-without-page-cache baseline),
// one through the persistent scan cache with incremental walks. The
// epoch loop is driven with Workers=1 and a fixed seed, so the JSON is
// byte-stable across runs and gated by bench-drift.
const (
	scanBenchPages  = 1024
	scanBenchSeed   = 64
	scanBenchEpochs = 8
	// scanWarmupEpochs are excluded from the steady-state aggregates:
	// the first audits populate the cache and memo.
	scanWarmupEpochs = 2
)

// ScanPoint is one epoch's scan-phase comparison. Map hypercalls count
// the modelled MapPage calls the audit issued (a cache miss = one map);
// scan time is the epoch's virtual VMI phase, including the cache's own
// modelled overhead (hit costs, invalidation sweeps).
type ScanPoint struct {
	Epoch            int     `json:"epoch"`
	UncachedMapCalls int     `json:"uncached_map_hypercalls"`
	UncachedScanMs   float64 `json:"uncached_scan_ms"`
	CachedMapCalls   int     `json:"cached_map_hypercalls"`
	CachedHits       int     `json:"cached_hits"`
	CachedMemoHits   int     `json:"cached_memo_hits"`
	CachedSwept      int     `json:"cached_swept"`
	CachedScanMs     float64 `json:"cached_scan_ms"`
	// MapReduction is 1 - cached/uncached map hypercalls for the epoch.
	MapReduction float64 `json:"map_call_reduction"`
}

// ScanBench is the machine-readable scan-path benchmark
// (BENCH_scan.json).
type ScanBench struct {
	Workload   string  `json:"workload"`
	EpochMs    float64 `json:"epoch_ms"`
	GuestPages int     `json:"guest_pages"`
	Epochs     int     `json:"epochs"`
	Warmup     int     `json:"warmup_epochs"`
	// Steady-state aggregates over the post-warmup epochs.
	SteadyMapReduction float64     `json:"steady_state_map_reduction"`
	SteadyScanSpeedup  float64     `json:"steady_state_scan_speedup"`
	Points             []ScanPoint `json:"points"`
}

// scanArmEpoch is one epoch's raw accounting from one arm.
type scanArmEpoch struct {
	cache  cost.ScanCacheCounts
	scanMs float64
}

// runScanArm drives scanBenchEpochs audited epochs of the workload
// under the given scan-cache mode and returns the per-epoch scan-phase
// accounting.
func runScanArm(spec workload.Spec, cfg core.Config, mode core.ScanCacheMode) ([]scanArmEpoch, error) {
	cfg.ScanCache = mode
	runner := workload.NewRunner(spec, scanBenchSeed)
	out := make([]scanArmEpoch, 0, scanBenchEpochs)
	err := runEpochs(fmt.Sprintf("scan bench (%v)", mode), scanBenchPages, scanBenchSeed, cfg, scanBenchEpochs, 0,
		func(g *guestos.Guest, _ int, interval time.Duration) error { return runner.RunEpoch(g, interval) },
		func(res *core.EpochResult) {
			out = append(out, scanArmEpoch{cache: res.ScanCache, scanMs: ms(res.Phases.VMI)})
		})
	return out, err
}

// ScanSweep runs both arms and assembles the benchmark.
func ScanSweep() (*ScanBench, error) {
	spec, err := workload.ParsecByName("swaptions")
	if err != nil {
		return nil, err
	}
	cfg := serialConfig(200 * time.Millisecond)
	uncached, err := runScanArm(spec, cfg, core.ScanCacheUncached)
	if err != nil {
		return nil, err
	}
	cached, err := runScanArm(spec, cfg, core.ScanCacheOn)
	if err != nil {
		return nil, err
	}
	bench := &ScanBench{
		Workload:   spec.Name,
		EpochMs:    ms(cfg.EpochInterval),
		GuestPages: scanBenchPages,
		Epochs:     scanBenchEpochs,
		Warmup:     scanWarmupEpochs,
	}
	var steadyUncMaps, steadyCachedMaps int
	var steadyUncMs, steadyCachedMs float64
	for i := 0; i < scanBenchEpochs; i++ {
		u, c := uncached[i], cached[i]
		p := ScanPoint{
			Epoch:            i + 1,
			UncachedMapCalls: u.cache.CacheMisses,
			UncachedScanMs:   u.scanMs,
			CachedMapCalls:   c.cache.CacheMisses,
			CachedHits:       c.cache.CacheHits,
			CachedMemoHits:   c.cache.MemoHits,
			CachedSwept:      c.cache.CacheSwept,
			CachedScanMs:     c.scanMs,
		}
		if u.cache.CacheMisses > 0 {
			p.MapReduction = 1 - float64(c.cache.CacheMisses)/float64(u.cache.CacheMisses)
		}
		bench.Points = append(bench.Points, p)
		if i >= scanWarmupEpochs {
			steadyUncMaps += u.cache.CacheMisses
			steadyCachedMaps += c.cache.CacheMisses
			steadyUncMs += u.scanMs
			steadyCachedMs += c.scanMs
		}
	}
	if steadyUncMaps > 0 {
		bench.SteadyMapReduction = 1 - float64(steadyCachedMaps)/float64(steadyUncMaps)
	}
	if steadyCachedMs > 0 {
		bench.SteadyScanSpeedup = steadyUncMs / steadyCachedMs
	}
	return bench, nil
}

// scanTable is the "scan" experiment's layout.
var scanTable = table[ScanPoint]{
	{"epoch", -6, "%d", "epoch", "%d", func(p ScanPoint) any { return p.Epoch }},
	{"unc-maps", 10, "%d", "uncached_map_hypercalls", "%d", func(p ScanPoint) any { return p.UncachedMapCalls }},
	{"unc-ms", 10, "%.3f", "uncached_scan_ms", "%.3f", func(p ScanPoint) any { return p.UncachedScanMs }},
	{"cach-maps", 10, "%d", "cached_map_hypercalls", "%d", func(p ScanPoint) any { return p.CachedMapCalls }},
	{"hits", 8, "%d", "cached_hits", "%d", func(p ScanPoint) any { return p.CachedHits }},
	{"memo-hits", 10, "%d", "cached_memo_hits", "%d", func(p ScanPoint) any { return p.CachedMemoHits }},
	{"cach-ms", 10, "%.3f", "cached_scan_ms", "%.3f", func(p ScanPoint) any { return p.CachedScanMs }},
	{"map-cut", 10, "%v", "map_call_reduction", "%.3f", func(p ScanPoint) any { return percent(p.MapReduction) }},
}

// render is the "scan" text experiment: per-epoch audit map hypercalls
// and scan-phase time, uncached versus cached.
func (bench *ScanBench) render() *Result {
	s := newSheet(fmt.Sprintf(
		"Scan path: %s audit map hypercalls and scan time (ms), uncached vs cached, %d-epoch run",
		bench.Workload, bench.Epochs))
	scanTable.header(s)
	scanTable.rows(s, bench.Points...)
	fmt.Fprintf(&s.text, "steady state (epochs %d-%d): map hypercalls cut %.1f%%, scan time %.2fx faster\n",
		bench.Warmup+1, bench.Epochs, 100*bench.SteadyMapReduction, bench.SteadyScanSpeedup)
	return s.result("scan", "Scan path: cached vs uncached audit")
}
