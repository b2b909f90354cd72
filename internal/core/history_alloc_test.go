package core

import (
	"runtime"
	"testing"

	"repro/internal/guestos"
	"repro/internal/hv"
)

// A steady-state clean epoch that retains history derives each image
// from the last one plus the epoch's dirty pages, so what it allocates
// depends on how many pages changed, not on the size of the guest: the
// same number of allocations on a 512-page and a 4096-page guest, and
// no more bytes on the larger one.
func TestCleanEpochAllocsIndependentOfGuestSize(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two guests")
	}
	type cost struct{ allocs, bytes float64 }
	measure := func(pages int) cost {
		h := hv.New(2*pages + 16)
		dom, err := h.CreateDomain("guest", pages)
		if err != nil {
			t.Fatalf("CreateDomain: %v", err)
		}
		g, err := guestos.Boot(dom, guestos.BootConfig{Seed: 99})
		if err != nil {
			t.Fatalf("Boot: %v", err)
		}
		ctl, err := New(h, g, Config{Modules: defaultModules(), HistoryDepth: 2, Workers: 1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer ctl.Close()
		pid, err := g.StartProcess("app", 0, 8)
		if err != nil {
			t.Fatalf("StartProcess: %v", err)
		}
		work := func(g *guestos.Guest) error { return g.Compute(pid, 10) }
		epoch := func() {
			res, err := ctl.RunEpoch(work)
			if err != nil || res.Incident != nil {
				t.Fatalf("epoch %d: err=%v incident=%v", res.Epoch, err, res.Incident != nil)
			}
		}
		// Past the first retain (a full dump) and the history filling up.
		for i := 0; i < 4; i++ {
			epoch()
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, epoch)
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up call besides its runs.
		return cost{allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)}
	}
	small, large := measure(512), measure(4096)
	if small.allocs != large.allocs {
		t.Errorf("allocations per clean epoch: %v on 512 pages, %v on 4096", small.allocs, large.allocs)
	}
	// A full dump per epoch would add 14 MiB on the larger guest; the
	// slack only absorbs the runtime's own background allocations.
	if large.bytes > small.bytes*1.01 {
		t.Errorf("bytes per clean epoch: %v on 512 pages, %v on 4096", small.bytes, large.bytes)
	}
}
