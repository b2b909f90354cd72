package core

import (
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/guestos"
	"repro/internal/hv"
)

// Setting a VM up — CreateDomain, guestos.Boot and core.New at Full, the
// initial synchronization included — allocates for the pages the guest
// wrote, not for the size of its memory: frames are demand-zero, and the
// initial sync stages only written pages. What still grows with the
// guest is its page-granular bookkeeping (physmaps, dirty bitmaps, the
// commit's PFN buffer), a few bytes per page; a page per guest page, as
// eager frames for the primary, the backup and the sync's staging pool
// took, would add 190 MiB to the larger guest.
func TestSetupBytesIndependentOfGuestSize(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two guests")
	}
	measure := func(pages int) uint64 {
		h := hv.New(2*pages + 16)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dom, err := h.CreateDomain("guest", pages)
		if err != nil {
			t.Fatalf("CreateDomain: %v", err)
		}
		g, err := guestos.Boot(dom, guestos.BootConfig{Seed: 99})
		if err != nil {
			t.Fatalf("Boot: %v", err)
		}
		ctl, err := New(h, g, Config{Modules: detect.DefaultModules(), Opt: cost.Full, Workers: 1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		runtime.ReadMemStats(&after)
		ctl.Close()
		return after.TotalAlloc - before.TotalAlloc
	}
	const small, large = 512, 16384
	s, l := measure(small), measure(large)
	t.Logf("set-up allocates %d B on %d pages, %d B on %d", s, small, l, large)
	// The bookkeeping comes to ~24 B per page, 380 KiB more on the larger
	// guest. The bound is fixed at 1 MiB; one page per guest page would
	// exceed it 60 times over.
	const bound = 1 << 20
	if l > s+bound {
		t.Errorf("set-up allocates %d B on %d pages and %d B on %d: %d B more, want at most %d",
			s, small, l, large, l-s, bound)
	}
}
