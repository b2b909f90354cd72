package hv

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/mem"
)

// Creating and destroying many domains concurrently — the fleet
// controller's boot/teardown pattern — must leave the frame allocator
// balanced: every frame returns to the host pool and no domain ID is
// handed out twice.
func TestConcurrentCreateDestroyNoFrameLeak(t *testing.T) {
	const goroutines, rounds, pages = 8, 50, 16
	h := New(goroutines*pages + 8)
	total := h.Machine().TotalFrames()
	var wg sync.WaitGroup
	ids := make([]map[DomainID]bool, goroutines)
	for i := 0; i < goroutines; i++ {
		ids[i] = make(map[DomainID]bool)
		wg.Add(1)
		go func(seen map[DomainID]bool) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				d, err := h.CreateDomain("ephemeral", pages)
				if err != nil {
					t.Errorf("CreateDomain: %v", err)
					return
				}
				if seen[d.ID()] {
					t.Errorf("domain ID %d issued twice to one goroutine", d.ID())
				}
				seen[d.ID()] = true
				// Touch memory so destruction really has frames to free.
				if err := d.WritePhys(0, []byte{1, 2, 3}); err != nil {
					t.Errorf("WritePhys: %v", err)
				}
				if err := h.DestroyDomain(d.ID()); err != nil {
					t.Errorf("DestroyDomain: %v", err)
				}
			}
		}(ids[i])
	}
	wg.Wait()
	if h.DomainCount() != 0 {
		t.Fatalf("%d domains left after teardown", h.DomainCount())
	}
	if free := h.Machine().FreeFrames(); free != total {
		t.Fatalf("frame leak: %d free of %d after create/destroy churn", free, total)
	}
	// IDs must be globally unique across goroutines too.
	all := make(map[DomainID]bool)
	for _, seen := range ids {
		for id := range seen {
			if all[id] {
				t.Fatalf("domain ID %d issued to two goroutines", id)
			}
			all[id] = true
		}
	}
}

// Hypercalls are attributed to the domain that made them while the
// global aggregate still counts everything.
func TestPerDomainHypercallAttribution(t *testing.T) {
	h := New(64)
	a, err := h.CreateDomain("a", 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.CreateDomain("b", 8)
	if err != nil {
		t.Fatal(err)
	}
	h.ResetCalls()

	// Domain a: map+unmap 3 pages and harvest its dirty bitmap.
	ma, err := h.MapForeign(a, []mem.PFN{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	ma.Unmap()
	if err := a.HarvestDirty(mem.NewBitmap(a.Pages())); err != nil {
		t.Fatal(err)
	}
	// Domain b: watch one page only.
	if err := b.WatchPage(0, AccessWrite); err != nil {
		t.Fatal(err)
	}

	ca, cb := a.Calls(), b.Calls()
	if ca.MapPage != 3 || ca.UnmapPage != 3 || ca.DirtyRead != 1 || ca.EventConfig != 0 {
		t.Errorf("domain a calls = %+v", ca)
	}
	if cb.EventConfig != 1 || cb.MapPage != 0 || cb.DirtyRead != 0 {
		t.Errorf("domain b calls = %+v", cb)
	}
	g := h.Calls()
	want := Hypercalls{}
	want.Add(ca)
	want.Add(cb)
	if g != want {
		t.Errorf("global calls = %+v, want sum of per-domain %+v", g, want)
	}

	// Per-domain reset clears one domain without touching the other or
	// the global aggregate.
	a.ResetCalls()
	if c := a.Calls(); c != (Hypercalls{}) {
		t.Errorf("domain a calls after reset = %+v", c)
	}
	if c := b.Calls(); c != cb {
		t.Errorf("domain b calls changed by a's reset: %+v", c)
	}
	if c := h.Calls(); c != g {
		t.Errorf("global calls changed by a domain reset: %+v", c)
	}
}

// Concurrent hypercall traffic from many domains keeps the books
// consistent: the global aggregate equals the sum of per-domain counts.
func TestConcurrentHypercallAccounting(t *testing.T) {
	const doms, rounds = 4, 100
	h := New(doms*8 + 8)
	var ds []*Domain
	for i := 0; i < doms; i++ {
		d, err := h.CreateDomain("d", 8)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	h.ResetCalls()
	var wg sync.WaitGroup
	for _, d := range ds {
		wg.Add(1)
		go func(d *Domain) {
			defer wg.Done()
			dst := mem.NewBitmap(d.Pages())
			for r := 0; r < rounds; r++ {
				m, err := h.MapForeign(d, []mem.PFN{0, 1})
				if err != nil {
					t.Errorf("MapForeign: %v", err)
					return
				}
				m.Unmap()
				if err := d.HarvestDirty(dst); err != nil {
					t.Errorf("HarvestDirty: %v", err)
					return
				}
			}
		}(d)
	}
	wg.Wait()
	var sum Hypercalls
	for _, d := range ds {
		c := d.Calls()
		if c.MapPage != 2*rounds || c.UnmapPage != 2*rounds || c.DirtyRead != rounds {
			t.Errorf("domain %d calls = %+v", d.ID(), c)
		}
		sum.Add(c)
	}
	if g := h.Calls(); g != sum {
		t.Errorf("global calls = %+v, want per-domain sum %+v", g, sum)
	}
}

// Concurrent allocation through the shared machine stays balanced even
// when allocations race with frees (the mem.Machine mutex satellite).
func TestConcurrentAllocFree(t *testing.T) {
	const goroutines, rounds = 8, 200
	m := mem.NewMachine(goroutines*4 + 4)
	total := m.TotalFrames()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				fs, err := m.AllocN(4)
				if err != nil {
					t.Errorf("AllocN: %v", err)
					return
				}
				for _, f := range fs {
					if err := m.Free(f); err != nil {
						t.Errorf("Free: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if free := m.FreeFrames(); free != total {
		t.Fatalf("allocator imbalance: %d free of %d", free, total)
	}
}

// One domain's frames are exchanged, and shared into a backup whose
// pages it then copies on write, while a neighbour on the same machine
// reads, writes, shares and dumps its own memory — the fleet shape, where
// every VM's commit swaps frames under the frame-table lock the other
// VMs resolve theirs through, and every VM's writes copy shared pages
// with no lock at all. Run under -race.
func TestExchangeAlongsideNeighbourAccess(t *testing.T) {
	const pages, rounds = 32, 200
	h := New(4*pages + 8)
	a, err := h.CreateDomain("exchanging", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	b, err := h.CreateDomain("neighbour", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	aBackup, err := h.CreateDomain("exchanging-backup", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	bBackup, err := h.CreateDomain("neighbour-backup", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	// Give every frame a page, so each exchange has one to replace (a
	// never-written frame has none).
	if err := a.WritePhys(0, bytes.Repeat([]byte{0xEE}, pages*mem.PageSize)); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	pfns := make([]mem.PFN, pages)
	staging := make([]*mem.Page, pages)
	for i := range pfns {
		pfns[i] = mem.PFN(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 3*mem.PageSize)
		for r := 0; r < rounds; r++ {
			if err := b.WritePhys(uint64(r%(pages-3))*mem.PageSize, buf); err != nil {
				t.Errorf("neighbour WritePhys: %v", err)
				return
			}
			if err := b.ReadPhys(uint64(r%(pages-3))*mem.PageSize, buf); err != nil {
				t.Errorf("neighbour ReadPhys: %v", err)
				return
			}
			if r%20 == 0 {
				if _, err := b.DumpMemory(); err != nil {
					t.Errorf("neighbour DumpMemory: %v", err)
					return
				}
			}
			if r%7 == 0 {
				if err := b.ShareTo(bBackup, pfns); err != nil {
					t.Errorf("neighbour ShareTo: %v", err)
					return
				}
			}
		}
	}()
	for r := 0; r < rounds; r++ {
		// A shared frame's page stays with the backup; an own one goes
		// back to a's spares, for the next round to stage in.
		for i := range staging {
			staging[i] = a.Spares().Take()
			staging[i][0] = byte(r)
		}
		if err := a.Exchange(pfns, staging); err != nil {
			t.Fatalf("Exchange round %d: %v", r, err)
		}
		got := make([]byte, 1)
		if err := a.ReadPhys(uint64(r%pages)*mem.PageSize, got); err != nil || got[0] != byte(r) {
			t.Fatalf("round %d: ReadPhys = %v, %v; want the exchanged-in page", r, got, err)
		}
		if err := a.ShareTo(aBackup, pfns); err != nil {
			t.Fatalf("ShareTo round %d: %v", r, err)
		}
		off := uint64(r%pages)*mem.PageSize + 1
		shared := make([]byte, 1)
		if err := a.ReadPhys(off, shared); err != nil {
			t.Fatalf("ReadPhys round %d: %v", r, err)
		}
		if err := a.WritePhys(off, []byte{^shared[0]}); err != nil {
			t.Fatalf("WritePhys round %d: %v", r, err)
		}
		if err := aBackup.ReadPhys(off, got); err != nil || got[0] != shared[0] {
			t.Fatalf("round %d: backup reads %v, %v after the source's write; want the shared %v", r, got, err, shared)
		}
	}
	<-done
}
