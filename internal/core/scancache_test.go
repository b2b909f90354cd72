package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/guestos"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestScanCacheOffKeepsZeroCounters: the default configuration must not
// touch any scan-cache machinery — no counters, no live mappings.
func TestScanCacheOffKeepsZeroCounters(t *testing.T) {
	ctl, _ := newController(t, guestos.LinuxProfile(), Config{
		EpochInterval: 20 * time.Millisecond,
		Modules:       detect.DefaultModules(),
	})
	for i := 0; i < 3; i++ {
		res, err := ctl.RunEpoch(dirtyingWork(t))
		if err != nil {
			t.Fatalf("epoch %d: %v", i+1, err)
		}
		if res.ScanCache != (cost.ScanCacheCounts{}) {
			t.Fatalf("cache-off epoch reported scan-cache activity: %+v", res.ScanCache)
		}
	}
	if tot := ctl.ScanCacheTotals(); tot != (cost.ScanCacheCounts{}) {
		t.Fatalf("cache-off totals = %+v, want zero", tot)
	}
	if used, capacity := ctl.ScanCacheLive(); used != 0 || capacity != 0 {
		t.Fatalf("cache-off live = (%d, %d), want (0, 0)", used, capacity)
	}
}

// TestScanCacheOnEpochCounters: with the cache enabled every audited
// epoch reports activity, the totals accumulate the per-epoch deltas,
// and the cache overhead is priced into the VMI phase.
func TestScanCacheOnEpochCounters(t *testing.T) {
	ctl, _ := newController(t, guestos.LinuxProfile(), Config{
		EpochInterval: 20 * time.Millisecond,
		Modules:       detect.DefaultModules(),
		ScanCache:     ScanCacheOn,
	})
	var sum cost.ScanCacheCounts
	for i := 0; i < 4; i++ {
		res, err := ctl.RunEpoch(dirtyingWork(t))
		if err != nil {
			t.Fatalf("epoch %d: %v", i+1, err)
		}
		sc := res.ScanCache
		if sc.CacheHits+sc.CacheMisses+sc.MemoHits+sc.MemoMisses == 0 {
			t.Fatalf("epoch %d reported no scan-cache activity: %+v", i+1, sc)
		}
		if i > 0 && sc.CacheHits == 0 {
			t.Fatalf("steady-state epoch %d had zero cache hits: %+v", i+1, sc)
		}
		if res.Phases.VMI <= 0 {
			t.Fatalf("epoch %d VMI phase priced at %v", i+1, res.Phases.VMI)
		}
		sum.Add(sc)
	}
	if tot := ctl.ScanCacheTotals(); tot != sum {
		t.Fatalf("totals = %+v, want sum of epoch deltas %+v", tot, sum)
	}
	used, capacity := ctl.ScanCacheLive()
	if used == 0 {
		t.Fatal("persistent cache empty after four audits")
	}
	if capacity != guestPages {
		t.Fatalf("default capacity = %d, want whole domain %d", capacity, guestPages)
	}
}

// TestScanCacheUncachedFlushesEveryEpoch: the uncached baseline tears
// its mappings down after every audit, so mappings never persist and
// every epoch pays fresh misses; the persistent cache must beat it at
// steady state.
func TestScanCacheUncachedFlushesEveryEpoch(t *testing.T) {
	run := func(mode ScanCacheMode) (*Controller, []cost.ScanCacheCounts) {
		ctl, _ := newController(t, guestos.LinuxProfile(), Config{
			EpochInterval: 20 * time.Millisecond,
			Modules:       detect.DefaultModules(),
			ScanCache:     mode,
		})
		var per []cost.ScanCacheCounts
		for i := 0; i < 4; i++ {
			res, err := ctl.RunEpoch(nil)
			if err != nil {
				t.Fatalf("%v epoch %d: %v", mode, i+1, err)
			}
			per = append(per, res.ScanCache)
		}
		return ctl, per
	}

	unc, uncPer := run(ScanCacheUncached)
	if used, _ := unc.ScanCacheLive(); used != 0 {
		t.Fatalf("uncached mode left %d live mappings after the audit", used)
	}
	for i, sc := range uncPer {
		if sc.CacheMisses == 0 {
			t.Fatalf("uncached epoch %d paid no misses: %+v", i+1, sc)
		}
		if sc.CacheUnmaps == 0 {
			t.Fatalf("uncached epoch %d tore nothing down: %+v", i+1, sc)
		}
		if sc.MemoHits != 0 {
			t.Fatalf("uncached epoch %d used the walk memo: %+v", i+1, sc)
		}
	}

	_, onPer := run(ScanCacheOn)
	// Steady state (past warm-up): the persistent cache re-maps only
	// dirtied pages while the uncached baseline re-maps its whole
	// working set.
	for i := 2; i < 4; i++ {
		if onPer[i].CacheMisses >= uncPer[i].CacheMisses {
			t.Fatalf("epoch %d: cache-on misses %d not below uncached %d",
				i+1, onPer[i].CacheMisses, uncPer[i].CacheMisses)
		}
	}
}

// TestScanCacheRollbackKeepsCleanMappings: a rollback restores only the
// pages in the dirty log, and they stay there, so the unwind keeps every
// cached mapping and memoized walk. The failed epoch starts a process
// that the rollback erases; the next audit's invalidation drops the
// restored pages with the walks that read them, remaps them, and finds
// exactly what an audit without the cache finds: the hidden process
// that epoch plants.
func TestScanCacheRollbackKeepsCleanMappings(t *testing.T) {
	run := func(mode ScanCacheMode) (live int, res *EpochResult) {
		ctl, inj, _ := newFaultController(t, Config{
			EpochInterval: 20 * time.Millisecond,
			Modules:       detect.DefaultModules(),
			ScanCache:     mode,
		})
		work := dirtyingWork(t)
		if _, err := ctl.RunEpoch(work); err != nil {
			t.Fatalf("warm-up epoch: %v", err)
		}
		inj.Fail(checkpoint.FaultCopyPage, inj.Calls(checkpoint.FaultCopyPage)+2, 1, false)
		res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
			if err := work(g); err != nil {
				return err
			}
			_, err := g.StartProcess("ghost", 0, 4)
			return err
		})
		if err == nil {
			t.Fatal("mid-commit fault did not fail the epoch")
		}
		if res.Recovery.Unwind != UnwindRollback {
			t.Fatalf("Unwind = %q, want %q", res.Recovery.Unwind, UnwindRollback)
		}
		live, _ = ctl.ScanCacheLive()
		res, err = ctl.RunEpoch(func(g *guestos.Guest) error {
			_, err := workload.InjectHiddenProcess(g, "lurker")
			return err
		})
		if err != nil {
			t.Fatalf("epoch after rollback: %v", err)
		}
		return live, res
	}
	live, warm := run(ScanCacheOn)
	if live == 0 {
		t.Fatal("rollback dropped every cached mapping")
	}
	if warm.ScanCache.CacheMisses == 0 || warm.ScanCache.CacheHits == 0 {
		t.Fatalf("post-rollback audit should remap the restored pages and hit the rest, got %+v", warm.ScanCache)
	}
	_, cold := run(ScanCacheOff)
	if len(cold.Findings) == 0 {
		t.Fatal("the audit without the cache missed the hidden process")
	}
	if !reflect.DeepEqual(warm.Findings, cold.Findings) {
		t.Fatalf("post-rollback findings through the kept cache = %+v, without it %+v", warm.Findings, cold.Findings)
	}
}

// TestScanCacheAsyncAuditIgnoresCache: the asynchronous audit scans a
// committed backup image, not the live domain, so the scan cache must
// stay out of its way entirely.
func TestScanCacheAsyncAuditIgnoresCache(t *testing.T) {
	ctl, _ := newController(t, guestos.LinuxProfile(), Config{
		EpochInterval: 20 * time.Millisecond,
		Modules:       detect.DefaultModules(),
		Scan:          ScanAsync,
		ScanCache:     ScanCacheOn,
	})
	for i := 0; i < 3; i++ {
		res, err := ctl.RunEpoch(dirtyingWork(t))
		if err != nil {
			t.Fatalf("epoch %d: %v", i+1, err)
		}
		if res.ScanCache != (cost.ScanCacheCounts{}) {
			t.Fatalf("async epoch %d billed scan-cache work: %+v", i+1, res.ScanCache)
		}
	}
}

// TestScanCacheObsSeries: the scan event carries the cache delta and
// the metrics dump grows crimes_scan_cache_total series — but only when
// the cache is enabled, so cache-off observability output is unchanged.
func TestScanCacheObsSeries(t *testing.T) {
	for _, tc := range []struct {
		mode ScanCacheMode
		want bool
	}{
		{ScanCacheOff, false},
		{ScanCacheOn, true},
	} {
		o, sink := newCollector()
		cfg := Config{
			EpochInterval: 20 * time.Millisecond,
			Modules:       detect.DefaultModules(),
			ScanCache:     tc.mode,
			Obs:           o,
		}
		ctl, _ := newController(t, guestos.LinuxProfile(), cfg)
		for i := 0; i < 2; i++ {
			if _, err := ctl.RunEpoch(dirtyingWork(t)); err != nil {
				t.Fatalf("%v epoch %d: %v", tc.mode, i+1, err)
			}
		}
		var attached bool
		for _, ev := range sink.Events() {
			if ev.Phase == obs.PhaseScan && ev.ScanCache != nil {
				attached = true
				if *ev.ScanCache == (obs.ScanCache{}) {
					t.Fatalf("%v: scan event carried an all-zero cache delta", tc.mode)
				}
			}
		}
		if attached != tc.want {
			t.Fatalf("%v: scan events carried cache deltas = %v, want %v", tc.mode, attached, tc.want)
		}
		dump := o.Metrics.DumpString()
		if got := strings.Contains(dump, "crimes_scan_cache_total"); got != tc.want {
			t.Fatalf("%v: metrics dump contains scan-cache series = %v, want %v", tc.mode, got, tc.want)
		}
	}
}

func TestScanCacheModeParseAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ScanCacheMode
	}{
		{"off", ScanCacheOff},
		{"", ScanCacheOff},
		{"uncached", ScanCacheUncached},
		{"on", ScanCacheOn},
	} {
		got, err := ParseScanCacheMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseScanCacheMode(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseScanCacheMode("bogus"); err == nil {
		t.Fatal("ParseScanCacheMode accepted a bogus mode")
	}
	for m, s := range map[ScanCacheMode]string{
		ScanCacheOff: "off", ScanCacheUncached: "uncached", ScanCacheOn: "on",
	} {
		if m.String() != s {
			t.Fatalf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
}
