package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/detect"
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

// runScanArm drives scanBenchEpochs audited epochs of the swaptions
// workload under the given scan-cache mode and returns the per-epoch
// scan-phase accounting.
func runScanArm(mode core.ScanCacheMode) ([]scanArmEpoch, error) {
	spec, err := workload.ParsecByName("swaptions")
	if err != nil {
		return nil, err
	}
	mods, err := detect.ModulesByName("default")
	if err != nil {
		return nil, err
	}
	epoch := 200 * time.Millisecond
	ctl, err := launch("guest", scanBenchPages, guestos.LinuxProfile(), scanBenchSeed, core.Config{
		EpochInterval: epoch,
		Modules:       mods,
		Workers:       1, // exact serial path: deterministic accounting
		ScanCache:     mode,
	})
	if err != nil {
		return nil, err
	}
	defer ctl.Close()

	runner := workload.NewRunner(spec, scanBenchSeed)
	out := make([]scanArmEpoch, 0, scanBenchEpochs)
	for i := 0; i < scanBenchEpochs; i++ {
		res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
			return runner.RunEpoch(g, epoch)
		})
		if err != nil {
			return nil, fmt.Errorf("scan bench (%v) epoch %d: %w", mode, i+1, err)
		}
		if res.Incident != nil {
			return nil, fmt.Errorf("scan bench (%v) epoch %d: unexpected incident", mode, i+1)
		}
		out = append(out, scanArmEpoch{cache: res.ScanCache, scanMs: ms(res.Phases.VMI)})
	}
	return out, nil
}

// ScanSweep runs both arms and assembles the benchmark.
func ScanSweep() (*ScanBench, error) {
	uncached, err := runScanArm(core.ScanCacheUncached)
	if err != nil {
		return nil, err
	}
	cached, err := runScanArm(core.ScanCacheOn)
	if err != nil {
		return nil, err
	}
	bench := &ScanBench{
		Workload:   "swaptions",
		EpochMs:    200,
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

// ScanCacheComparison regenerates the scan-path comparison as a text
// experiment ("scan"): per-epoch audit map hypercalls and scan-phase
// time, uncached versus cached.
func ScanCacheComparison() (*Result, error) {
	bench, err := ScanSweep()
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	renderHeader(&b, fmt.Sprintf(
		"Scan path: %s audit map hypercalls and scan time (ms), uncached vs cached, %d-epoch run",
		bench.Workload, bench.Epochs))
	fmt.Fprintf(&b, "%-6s %10s %10s %10s %8s %10s %10s %10s\n",
		"epoch", "unc-maps", "unc-ms", "cach-maps", "hits", "memo-hits", "cach-ms", "map-cut")
	var csv strings.Builder
	csv.WriteString("epoch,uncached_map_hypercalls,uncached_scan_ms,cached_map_hypercalls,cached_hits,cached_memo_hits,cached_scan_ms,map_call_reduction\n")
	for _, p := range bench.Points {
		fmt.Fprintf(&b, "%-6d %10d %10.3f %10d %8d %10d %10.3f %9.1f%%\n",
			p.Epoch, p.UncachedMapCalls, p.UncachedScanMs, p.CachedMapCalls,
			p.CachedHits, p.CachedMemoHits, p.CachedScanMs, 100*p.MapReduction)
		fmt.Fprintf(&csv, "%d,%d,%.3f,%d,%d,%d,%.3f,%.3f\n",
			p.Epoch, p.UncachedMapCalls, p.UncachedScanMs, p.CachedMapCalls,
			p.CachedHits, p.CachedMemoHits, p.CachedScanMs, p.MapReduction)
	}
	fmt.Fprintf(&b, "steady state (epochs %d-%d): map hypercalls cut %.1f%%, scan time %.2fx faster\n",
		bench.Warmup+1, bench.Epochs, 100*bench.SteadyMapReduction, bench.SteadyScanSpeedup)
	return &Result{
		ID:    "scan",
		Title: "Scan path: cached vs uncached audit",
		Text:  b.String(),
		CSV:   csv.String(),
	}, nil
}
