package detect

import (
	"runtime"
	"testing"

	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/vmi"
)

// With the scan cache on, a clean epoch's canary audit costs what the
// epoch changed, not the size of the canary table: on a 65,536-slot
// table it allocates the same number of times, and no more bytes, with
// 7,168 live canaries as with 1,024. The epoch writes the same objects
// and registers and retires one canary, so it dirties the table header,
// one table page and the same heap pages either way. Each figure is the
// minimum over the runs, so a runtime allocation between two reads of
// the counters cannot make it flaky.
func TestCanaryAuditAllocsIndependentOfLiveCanaries(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two guests")
	}
	const pages = 4096
	type cost struct{ allocs, bytes uint64 }
	measure := func(live int) cost {
		h := hv.New(pages + 16)
		dom, err := h.CreateDomain("guest", pages)
		if err != nil {
			t.Fatalf("CreateDomain: %v", err)
		}
		g, err := guestos.Boot(dom, guestos.BootConfig{Seed: 5, CanaryCapacity: 1 << 16})
		if err != nil {
			t.Fatalf("Boot: %v", err)
		}
		// The live canaries, 128 to a process.
		for p := 0; p < live/128; p++ {
			pid, err := g.StartProcess("filler", 0, 2)
			if err != nil {
				t.Fatalf("StartProcess: %v", err)
			}
			for i := 0; i < 128; i++ {
				if _, err := g.Malloc(pid, 16); err != nil {
					t.Fatalf("Malloc: %v", err)
				}
			}
		}
		pid, err := g.StartProcess("app", 0, 8)
		if err != nil {
			t.Fatalf("StartProcess: %v", err)
		}
		var objs []uint64
		for i := 0; i < 8; i++ {
			va, err := g.Malloc(pid, 1000)
			if err != nil {
				t.Fatalf("Malloc: %v", err)
			}
			objs = append(objs, va)
		}
		if all, err := g.ActiveCanaries(); err != nil || len(all) != live+len(objs) {
			t.Fatalf("%d live canaries (error %v), want %d", len(all), err, live+len(objs))
		}
		cache := hv.NewCachedMapping(dom, 0)
		ctx, err := vmi.NewContext(cache, g.Profile(), g.SystemMap())
		if err != nil {
			t.Fatalf("NewContext: %v", err)
		}
		if err := ctx.Preprocess(); err != nil {
			t.Fatalf("Preprocess: %v", err)
		}
		memo := vmi.NewWalkMemo()
		ctx.SetMemo(memo)
		dom.EnableDirtyLogging()
		dirty := mem.NewBitmap(pages)
		var before, after runtime.MemStats
		c := cost{^uint64(0), ^uint64(0)}
		for run := 0; run < 12; run++ {
			for i, va := range objs {
				if err := g.WriteUser(pid, va, []byte{byte(run), byte(i)}); err != nil {
					t.Fatalf("WriteUser: %v", err)
				}
			}
			va, err := g.Malloc(pid, 24)
			if err != nil {
				t.Fatalf("Malloc: %v", err)
			}
			if err := g.Free(pid, va); err != nil {
				t.Fatalf("Free: %v", err)
			}
			if err := dom.HarvestDirty(dirty); err != nil {
				t.Fatalf("HarvestDirty: %v", err)
			}
			if err := dom.CleanDirty(dirty); err != nil {
				t.Fatalf("CleanDirty: %v", err)
			}
			counts := &ScanCounts{}
			runtime.ReadMemStats(&before)
			cache.Invalidate(dirty)
			memo.Invalidate(dirty)
			findings, err := CanaryModule{}.Scan(&ScanContext{VMI: ctx, Dirty: dirty, Counts: counts})
			runtime.ReadMemStats(&after)
			if err != nil || len(findings) > 0 {
				t.Fatalf("clean epoch: findings %v, error %v", findings, err)
			}
			if counts.CanariesChecked == 0 {
				t.Fatal("the audit checked no canary")
			}
			if run > 0 { // the first run builds the index
				c.allocs = min(c.allocs, after.Mallocs-before.Mallocs)
				c.bytes = min(c.bytes, after.TotalAlloc-before.TotalAlloc)
			}
		}
		return c
	}
	small, large := measure(1024), measure(7168)
	t.Logf("per clean canary audit: %+v with 1,024 live canaries, %+v with 7,168", small, large)
	if small.allocs != large.allocs {
		t.Errorf("allocations per clean canary audit: %d with 1,024 live canaries, %d with 7,168", small.allocs, large.allocs)
	}
	// The whole-table decode would add 24 bytes per live canary.
	if large.bytes > small.bytes {
		t.Errorf("bytes per clean canary audit: %d with 1,024 live canaries, %d with 7,168", small.bytes, large.bytes)
	}
}

// With a walk memo attached, the unaided scans of an epoch that changed
// no kernel structure read the memoized walks in place: the malware,
// syscall-integrity and hidden-process modules allocate nothing when
// they find nothing. Each figure is the minimum over the runs, as above.
func TestUnaidedScansAllocateNothingOnMemoHits(t *testing.T) {
	const pages = 1024
	h := hv.New(pages + 16)
	dom, err := h.CreateDomain("guest", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	g, err := guestos.Boot(dom, guestos.BootConfig{Seed: 5})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	for p := 0; p < 40; p++ {
		if _, err := g.StartProcess("worker", 33, 2); err != nil {
			t.Fatalf("StartProcess: %v", err)
		}
	}
	ctx, err := vmi.NewContext(hv.NewCachedMapping(dom, 0), g.Profile(), g.SystemMap())
	if err != nil {
		t.Fatalf("NewContext: %v", err)
	}
	if err := ctx.Preprocess(); err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	ctx.SetMemo(vmi.NewWalkMemo())
	sc := &ScanContext{VMI: ctx, Dirty: mem.NewBitmap(pages), Counts: &ScanCounts{}}
	var before, after runtime.MemStats
	for _, m := range []Module{NewMalwareModule(nil), SyscallModule{}, HiddenProcessModule{}} {
		allocs := ^uint64(0)
		for run := 0; run < 6; run++ {
			runtime.ReadMemStats(&before)
			findings, err := m.Scan(sc)
			runtime.ReadMemStats(&after)
			if err != nil || len(findings) > 0 {
				t.Fatalf("%s: findings %v, error %v", m.Name(), findings, err)
			}
			if run > 0 { // the first run walks
				allocs = min(allocs, after.Mallocs-before.Mallocs)
			}
		}
		if allocs != 0 {
			t.Errorf("%s: %d allocations per scan on memo hits, want 0", m.Name(), allocs)
		}
	}
	if st := ctx.Memo().Stats(); st.Hits == 0 {
		t.Fatalf("memo stats %+v: the scans never hit", st)
	}
}
