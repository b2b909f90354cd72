package hv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func newTestDomain(t *testing.T, pages int) (*Hypervisor, *Domain) {
	t.Helper()
	h := New(pages + 16)
	d, err := h.CreateDomain("test", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	return h, d
}

func TestCreateDestroyDomain(t *testing.T) {
	h := New(8)
	d, err := h.CreateDomain("vm1", 4)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	if d.Pages() != 4 || d.Name() != "vm1" || d.State() != StateRunning {
		t.Fatalf("unexpected domain: pages=%d name=%q state=%v", d.Pages(), d.Name(), d.State())
	}
	got, err := h.Domain(d.ID())
	if err != nil || got != d {
		t.Fatalf("Domain lookup = %v, %v", got, err)
	}
	if err := h.DestroyDomain(d.ID()); err != nil {
		t.Fatalf("DestroyDomain: %v", err)
	}
	if h.Machine().FreeFrames() != 8 {
		t.Fatalf("frames not reclaimed: %d free, want 8", h.Machine().FreeFrames())
	}
	if _, err := h.Domain(d.ID()); !errors.Is(err, ErrNoDomain) {
		t.Fatalf("lookup after destroy: %v, want ErrNoDomain", err)
	}
}

func TestCreateDomainInsufficientMemory(t *testing.T) {
	h := New(2)
	if _, err := h.CreateDomain("big", 4); !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("CreateDomain beyond machine: %v, want ErrOutOfMemory", err)
	}
}

func TestReadWritePhys(t *testing.T) {
	_, d := newTestDomain(t, 4)
	data := []byte("hello guest memory")
	// Write spanning a page boundary.
	addr := uint64(mem.PageSize - 5)
	if err := d.WritePhys(addr, data); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	buf := make([]byte, len(data))
	if err := d.ReadPhys(addr, buf); err != nil {
		t.Fatalf("ReadPhys: %v", err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatalf("readback = %q, want %q", buf, data)
	}
}

func TestAccessOutOfRange(t *testing.T) {
	_, d := newTestDomain(t, 1)
	if err := d.WritePhys(mem.PageSize-1, []byte{1, 2}); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("write past end: %v, want ErrBadAddress", err)
	}
	if err := d.ReadPhys(uint64(mem.PageSize), make([]byte, 1)); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("read past end: %v, want ErrBadAddress", err)
	}
}

// Property: any write followed by a read of the same range returns the
// written bytes, at any in-range address.
func TestReadWriteRoundtripProperty(t *testing.T) {
	_, d := newTestDomain(t, 8)
	f := func(addr uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		a := uint64(addr) % (d.MemBytes() - uint64(len(data)))
		if err := d.WritePhys(a, data); err != nil {
			return false
		}
		buf := make([]byte, len(data))
		if err := d.ReadPhys(a, buf); err != nil {
			return false
		}
		return bytes.Equal(buf, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDomainLifecycle(t *testing.T) {
	_, d := newTestDomain(t, 1)
	if err := d.Pause(); err != nil {
		t.Fatalf("Pause: %v", err)
	}
	if err := d.Pause(); !errors.Is(err, ErrBadState) {
		t.Fatalf("double Pause: %v, want ErrBadState", err)
	}
	if err := d.Suspend(); err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	if d.State() != StateSuspended {
		t.Fatalf("state = %v, want suspended", d.State())
	}
	if err := d.Resume(); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if err := d.Resume(); !errors.Is(err, ErrBadState) {
		t.Fatalf("Resume while running: %v, want ErrBadState", err)
	}
}

func TestDirtyLogging(t *testing.T) {
	_, d := newTestDomain(t, 8)
	d.EnableDirtyLogging()
	if err := d.WritePhys(0, []byte{1}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if err := d.WritePhys(3*mem.PageSize+10, []byte{2}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if d.DirtyCount() != 2 {
		t.Fatalf("DirtyCount = %d, want 2", d.DirtyCount())
	}
	bm := mem.NewBitmap(d.Pages())
	if err := d.HarvestDirty(bm); err != nil {
		t.Fatalf("HarvestDirty: %v", err)
	}
	if !bm.Test(0) || !bm.Test(3) || bm.Count() != 2 {
		t.Fatalf("harvested bitmap wrong: count=%d", bm.Count())
	}
	if d.DirtyCount() != 2 {
		t.Fatalf("harvest cleared the dirty log: %d pages left, want 2", d.DirtyCount())
	}
	if got := d.DirtyPages(nil); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("DirtyPages = %v, want [0 3]", got)
	}
	// A commit of page 3 alone cleans page 3 alone.
	committed := mem.NewBitmap(d.Pages())
	committed.Set(3)
	if err := d.CleanDirty(committed); err != nil {
		t.Fatalf("CleanDirty: %v", err)
	}
	if got := d.DirtyPages(nil); len(got) != 1 || got[0] != 0 {
		t.Fatalf("after cleaning page 3 the log holds %v, want [0]", got)
	}
	if err := d.CleanDirty(mem.NewBitmap(d.Pages() + 1)); err == nil {
		t.Fatal("CleanDirty with a bitmap of another length succeeded")
	}
	if err := d.CleanDirty(bm); err != nil {
		t.Fatalf("CleanDirty: %v", err)
	}
	d.DisableDirtyLogging()
	if err := d.WritePhys(0, []byte{1}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if d.DirtyCount() != 0 {
		t.Fatal("write tracked while logging disabled")
	}
}

func TestWriteSpanningPagesDirtiesBoth(t *testing.T) {
	_, d := newTestDomain(t, 2)
	d.EnableDirtyLogging()
	if err := d.WritePhys(mem.PageSize-2, []byte{1, 2, 3, 4}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if d.DirtyCount() != 2 {
		t.Fatalf("DirtyCount = %d, want 2 (both spanned pages)", d.DirtyCount())
	}
}

func TestMemoryEvents(t *testing.T) {
	_, d := newTestDomain(t, 4)
	if err := d.WatchPage(2, AccessWrite); err != nil {
		t.Fatalf("WatchPage: %v", err)
	}
	d.SetVCPU(VCPU{RIP: 0x1234})
	// Write to an unwatched page: no event.
	if err := d.WritePhys(0, []byte{9}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	// Read of the watched page: watch is write-only, no event.
	if err := d.ReadPhys(2*mem.PageSize, make([]byte, 1)); err != nil {
		t.Fatalf("ReadPhys: %v", err)
	}
	// Write to the watched page: one event with data and vCPU state.
	if err := d.WritePhys(2*mem.PageSize+100, []byte{0xAA, 0xBB}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	evs := d.PollEvents()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.PFN != 2 || ev.Offset != 100 || ev.Length != 2 || ev.Access != AccessWrite {
		t.Fatalf("unexpected event: %+v", ev)
	}
	if !bytes.Equal(ev.Data, []byte{0xAA, 0xBB}) {
		t.Fatalf("event data = %v", ev.Data)
	}
	if ev.VCPU.RIP != 0x1234 {
		t.Fatalf("event vcpu RIP = %#x, want 0x1234", ev.VCPU.RIP)
	}
	if len(d.PollEvents()) != 0 {
		t.Fatal("events not drained")
	}
	d.UnwatchPage(2, AccessRead|AccessWrite|AccessExec)
	if err := d.WritePhys(2*mem.PageSize, []byte{1}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if len(d.PollEvents()) != 0 {
		t.Fatal("event fired after unwatch")
	}
}

func TestForeignMapping(t *testing.T) {
	h, d := newTestDomain(t, 4)
	if err := d.WritePhys(mem.PageSize, []byte("page one")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	h.ResetCalls()
	fm, err := h.MapForeign(d, []mem.PFN{1, 3})
	if err != nil {
		t.Fatalf("MapForeign: %v", err)
	}
	if fm.Len() != 2 {
		t.Fatalf("Len = %d, want 2", fm.Len())
	}
	p, err := fm.Page(1)
	if err != nil {
		t.Fatalf("Page(1): %v", err)
	}
	if !bytes.Equal(p[:8], []byte("page one")) {
		t.Fatalf("mapped page contents = %q", p[:8])
	}
	// Writes through the mapping alias guest memory.
	copy(p[:4], "XXXX")
	buf := make([]byte, 4)
	if err := d.ReadPhys(mem.PageSize, buf); err != nil {
		t.Fatalf("ReadPhys: %v", err)
	}
	if string(buf) != "XXXX" {
		t.Fatalf("write through mapping not visible: %q", buf)
	}
	if _, err := fm.Page(2); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("Page(unmapped): %v, want ErrBadAddress", err)
	}
	fm.Unmap()
	calls := h.Calls()
	if calls.MapPage != 2 || calls.UnmapPage != 2 {
		t.Fatalf("hypercalls = %+v, want 2 map + 2 unmap", calls)
	}
}

func TestGlobalMapping(t *testing.T) {
	h, d := newTestDomain(t, 4)
	h.ResetCalls()
	gm, err := h.MapAll(d)
	if err != nil {
		t.Fatalf("MapAll: %v", err)
	}
	if gm.Len() != 4 {
		t.Fatalf("Len = %d, want 4", gm.Len())
	}
	if h.Calls().MapPage != 4 {
		t.Fatalf("MapPage calls = %d, want 4", h.Calls().MapPage)
	}
	if err := d.WritePhys(2*mem.PageSize, []byte("hi")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	p, err := gm.Page(2)
	if err != nil {
		t.Fatalf("Page: %v", err)
	}
	if string(p[:2]) != "hi" {
		t.Fatalf("premapped page = %q", p[:2])
	}
	if _, err := gm.Page(9); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("Page(9): %v, want ErrBadAddress", err)
	}
}

// ShareTo hands the target domain the source's pages by reference: both
// read the same page, seen through a global mapping too, until either
// writes it, which copies it first and leaves the other's bytes alone. A
// never-written page shares no page; a bad batch shares nothing, and a
// destroyed domain refuses.
func TestShareToSharesUntilWritten(t *testing.T) {
	h, d := newTestDomain(t, 4)
	b, err := h.CreateDomain("backup", 4)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	gm, err := h.MapAll(b)
	if err != nil {
		t.Fatalf("MapAll: %v", err)
	}
	defer gm.Unmap()
	if err := d.WritePhys(1*mem.PageSize, []byte("old")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if err := d.ShareTo(b, []mem.PFN{1, 3, 9}); !errors.Is(err, mem.ErrBadFrame) {
		t.Fatalf("ShareTo past the end: %v, want ErrBadFrame", err)
	}
	if p, _ := gm.Page(1); p[0] != 0 {
		t.Fatal("a rejected share changed pfn 1")
	}
	if err := d.ShareTo(b, []mem.PFN{1, 3}); err != nil {
		t.Fatalf("ShareTo: %v", err)
	}
	src, _ := d.Translate(1)
	dst, _ := b.Translate(1)
	if p, _ := gm.Page(1); &p[0] != &h.Machine().Page(src)[0] || string(p[:3]) != "old" {
		t.Fatal("the target does not hold the source's page")
	}
	if z, _ := b.Translate(3); h.Machine().Written(z) {
		t.Fatal("sharing a never-written page gave the target a page")
	}
	if err := d.WritePhys(1*mem.PageSize, []byte("new")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	got := make([]byte, 3)
	if err := b.ReadPhys(1*mem.PageSize, got); err != nil || string(got) != "old" {
		t.Fatalf("target reads %q (err %v) after the source's write, want \"old\"", got, err)
	}
	if h.Machine().Page(src) == h.Machine().Page(dst) {
		t.Fatal("the source's write did not copy the shared page")
	}
	if err := h.DestroyDomain(b.ID()); err != nil {
		t.Fatalf("DestroyDomain: %v", err)
	}
	if err := d.ShareTo(b, []mem.PFN{1}); !errors.Is(err, ErrBadState) {
		t.Fatalf("ShareTo a destroyed domain: %v, want ErrBadState", err)
	}
}

// A domain without a global mapping exchanges its own frames, and the
// page a frame held goes back to the domain's spares; a destroyed domain
// refuses.
func TestDomainExchange(t *testing.T) {
	h, d := newTestDomain(t, 4)
	if err := d.WritePhys(2*mem.PageSize, []byte("old")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	mfn, err := d.Translate(2)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	old := h.Machine().Page(mfn)
	staged := d.Spares().Take()
	copy(staged[:], "new")
	spares := d.Spares().Len()
	if err := d.Exchange([]mem.PFN{2}, []*mem.Page{staged}); err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	got := make([]byte, 3)
	if err := d.ReadPhys(2*mem.PageSize, got); err != nil || string(got) != "new" {
		t.Fatalf("ReadPhys after exchange = %q, %v; want \"new\"", got, err)
	}
	if d.Spares().Len() != spares+1 || d.Spares().Take() != old || string(old[:3]) != "old" {
		t.Fatal("the frame's old page did not go back to the domain's spares")
	}
	if err := h.DestroyDomain(d.ID()); err != nil {
		t.Fatalf("DestroyDomain: %v", err)
	}
	if err := d.Exchange([]mem.PFN{2}, []*mem.Page{d.Spares().Take()}); !errors.Is(err, ErrBadState) {
		t.Fatalf("Exchange on a destroyed domain: %v, want ErrBadState", err)
	}
}

func TestSnapshotRoundtrip(t *testing.T) {
	_, d := newTestDomain(t, 4)
	if err := d.WritePhys(123, []byte("before")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	d.SetVCPU(VCPU{RIP: 7, RSP: 8})
	snap, err := d.DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	// Mutate, then restore.
	if err := d.WritePhys(123, []byte("after!")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	d.SetVCPU(VCPU{RIP: 99})
	if err := d.RestoreMemory(snap, allPages(d)); err != nil {
		t.Fatalf("RestoreMemory: %v", err)
	}
	buf := make([]byte, 6)
	if err := d.ReadPhys(123, buf); err != nil {
		t.Fatalf("ReadPhys: %v", err)
	}
	if string(buf) != "before" {
		t.Fatalf("restored memory = %q, want %q", buf, "before")
	}
	if d.VCPU().RIP != 7 {
		t.Fatalf("restored RIP = %d, want 7", d.VCPU().RIP)
	}
}

func TestSnapshotSizeMismatch(t *testing.T) {
	h, d := newTestDomain(t, 2)
	other, err := h.CreateDomain("other", 3)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	snap, err := other.DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	if err := d.RestoreMemory(snap, allPages(d)); err == nil {
		t.Fatal("RestoreMemory with size mismatch succeeded")
	}
	if _, err := d.DumpDirty(snap, nil); err == nil {
		t.Fatal("DumpDirty over a base of another size succeeded")
	}
	own, err := d.DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	if _, err := d.DumpDirty(own, []mem.PFN{2}); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("DumpDirty of a PFN past the end: err = %v, want ErrBadAddress", err)
	}
}

// Snapshots of a guest too large for one directory level derive and
// read back exactly like small ones: every page through the deeper
// table, the derived one sharing all but its re-copied pages.
func TestSnapshotDeepTable(t *testing.T) {
	const pages = 5000 // beyond the 4096 pages one directory level covers
	_, d := newTestDomain(t, pages)
	for _, pfn := range []uint64{0, 4095, 4096, pages - 1} {
		if err := d.WritePhys(pfn*mem.PageSize, []byte{byte(pfn), 1}); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
	}
	base, err := d.DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	dirty := []mem.PFN{1, 4096, pages - 1}
	for _, pfn := range dirty {
		if err := d.WritePhys(uint64(pfn)*mem.PageSize+2, []byte{9}); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
	}
	derived, err := d.DumpDirty(base, dirty)
	if err != nil {
		t.Fatalf("DumpDirty: %v", err)
	}
	full, err := d.DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	if !bytes.Equal(derived.Bytes(), full.Bytes()) {
		t.Fatal("derived snapshot differs from a full dump")
	}
	shared := 0
	for pfn := 0; pfn < pages; pfn++ {
		a, _ := base.ReadPage(mem.PFN(pfn))
		b, _ := derived.ReadPage(mem.PFN(pfn))
		if &a[0] == &b[0] {
			shared++
		}
	}
	if shared != pages-len(dirty) {
		t.Fatalf("derived snapshot shares %d pages with its base, want %d", shared, pages-len(dirty))
	}
}

// A snapshot does not change when the domain it was taken from is
// written or restored afterwards, nor when a snapshot derived from it is.
func TestSnapshotIsImmutable(t *testing.T) {
	_, d := newTestDomain(t, 3)
	if err := d.WritePhys(0, []byte{1}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	s, err := d.DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	want := s.Bytes()
	if err := d.WritePhys(0, []byte{42}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if err := d.WritePhys(2*mem.PageSize, []byte{7}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	derived, err := d.DumpDirty(s, []mem.PFN{0})
	if err != nil {
		t.Fatalf("DumpDirty: %v", err)
	}
	if err := d.RestoreMemory(derived, allPages(d)); err != nil {
		t.Fatalf("RestoreMemory: %v", err)
	}
	if err := d.WritePhys(1, []byte{9}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if !bytes.Equal(s.Bytes(), want) {
		t.Fatal("snapshot changed after later writes, derivation and restore")
	}
	if p, _ := derived.ReadPage(0); p[0] != 42 || p[1] != 0 {
		t.Fatalf("derived page 0 = %v, want the write at derivation time", p[:2])
	}
	if p, _ := derived.ReadPage(2); p[0] != 0 {
		t.Fatal("derived snapshot copied a page outside its pfns")
	}
	aliasedImagesSurviveExchanges(t)
}

// aliasedImagesSurviveExchanges is TestSnapshotIsImmutable for images
// that alias a domain's pages: a domain written only by frame exchange,
// as a checkpoint backup is, goes through 50 exchanges staged in pages
// from its spares, with an image aliased after each and every image kept.
// Each keeps the bytes it had when it was taken — through the
// exchanges, the destruction of the domain, and new domains allocated
// over its frames and written.
func aliasedImagesSurviveExchanges(t *testing.T) {
	t.Helper()
	const pages, exchanges = 130, 50 // a three-leaf table
	h := New(2*pages + 8)
	d, err := h.CreateDomain("backup", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	type kept struct {
		snap *Snapshot
		want []byte
	}
	image, err := d.AliasMemory()
	if err != nil {
		t.Fatalf("AliasMemory: %v", err)
	}
	images := []kept{{image, image.Bytes()}}
	check := func(when string) {
		t.Helper()
		for i, k := range images {
			if !bytes.Equal(k.snap.Bytes(), k.want) {
				t.Fatalf("%s: image %d changed", when, i)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for e := 0; e < exchanges; e++ {
		var pfns []mem.PFN
		for pfn := 0; pfn < pages; pfn++ {
			if rng.Intn(4) == 0 {
				pfns = append(pfns, mem.PFN(pfn))
			}
		}
		staged := make([]*mem.Page, len(pfns))
		for i := range staged {
			staged[i] = d.Spares().Take()
			rng.Read(staged[i][:])
		}
		if err := d.Exchange(pfns, staged); err != nil {
			t.Fatalf("exchange %d: %v", e, err)
		}
		if e%3 == 2 {
			continue // the next image takes two exchanges' pages
		}
		var published []mem.PFN
		for pfn := 0; pfn < pages; pfn++ {
			a, _ := image.ReadPage(mem.PFN(pfn))
			var b [mem.PageSize]byte
			if err := d.ReadPhys(uint64(pfn)*mem.PageSize, b[:]); err != nil {
				t.Fatalf("ReadPhys: %v", err)
			}
			if !bytes.Equal(a, b[:]) {
				published = append(published, mem.PFN(pfn))
			}
		}
		if image, err = d.AliasDirty(image, published); err != nil {
			t.Fatalf("AliasDirty after exchange %d: %v", e, err)
		}
		images = append(images, kept{image, image.Bytes()})
		check(fmt.Sprintf("exchange %d", e))
	}
	if err := h.DestroyDomain(d.ID()); err != nil {
		t.Fatalf("DestroyDomain: %v", err)
	}
	fill := bytes.Repeat([]byte{0xEE}, pages*mem.PageSize)
	for _, name := range []string{"next", "after"} {
		n, err := h.CreateDomain(name, pages)
		if err != nil {
			t.Fatalf("CreateDomain: %v", err)
		}
		if err := n.WritePhys(0, fill); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
	}
	check("new domains written over the freed frames")
}

// RestoreMemory writes back only the pages it is given, and a page past
// the end fails it before any page is written.
func TestRestoreMemoryRestoresListedPages(t *testing.T) {
	_, d := newTestDomain(t, 4)
	snap, err := d.DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	for pfn := uint64(0); pfn < 3; pfn++ {
		if err := d.WritePhys(pfn*mem.PageSize, []byte{9}); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
	}
	if err := d.RestoreMemory(snap, []mem.PFN{2, 4}); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("RestoreMemory of a PFN past the end: err = %v, want ErrBadAddress", err)
	}
	var b [1]byte
	if err := d.ReadPhys(2*mem.PageSize, b[:]); err != nil || b[0] != 9 {
		t.Fatalf("page 2 = %d (err %v) after a failed restore, want 9", b[0], err)
	}
	if err := d.RestoreMemory(snap, []mem.PFN{2, 0}); err != nil {
		t.Fatalf("RestoreMemory: %v", err)
	}
	for pfn, want := range []byte{0, 9, 0} {
		if err := d.ReadPhys(uint64(pfn)*mem.PageSize, b[:]); err != nil {
			t.Fatalf("ReadPhys: %v", err)
		}
		if b[0] != want {
			t.Fatalf("page %d = %d after restoring pages 0 and 2, want %d", pfn, b[0], want)
		}
	}
}

func TestPhysmapSnapshotCountsTranslations(t *testing.T) {
	h, d := newTestDomain(t, 5)
	h.ResetCalls()
	pm := d.PhysmapSnapshot()
	if len(pm) != 5 {
		t.Fatalf("physmap len = %d, want 5", len(pm))
	}
	if h.Calls().Translate != 5 {
		t.Fatalf("Translate calls = %d, want 5", h.Calls().Translate)
	}
}

func TestEventDataIsIsolated(t *testing.T) {
	// Mutating the data slice in a delivered event must not alias guest
	// memory.
	_, d := newTestDomain(t, 2)
	if err := d.WatchPage(0, AccessWrite); err != nil {
		t.Fatalf("WatchPage: %v", err)
	}
	if err := d.WritePhys(0, []byte{1, 2, 3}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	ev := d.PollEvents()[0]
	ev.Data[0] = 0xFF
	var b [1]byte
	if err := d.ReadPhys(0, b[:]); err != nil {
		t.Fatalf("ReadPhys: %v", err)
	}
	if b[0] != 1 {
		t.Fatal("event data aliases guest memory")
	}
}

func TestReadWatchKinds(t *testing.T) {
	_, d := newTestDomain(t, 2)
	if err := d.WatchPage(1, AccessRead); err != nil {
		t.Fatalf("WatchPage: %v", err)
	}
	if err := d.WritePhys(mem.PageSize, []byte{1}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if evs := d.PollEvents(); len(evs) != 0 {
		t.Fatalf("write fired a read watch: %+v", evs)
	}
	if err := d.ReadPhys(mem.PageSize, make([]byte, 4)); err != nil {
		t.Fatalf("ReadPhys: %v", err)
	}
	evs := d.PollEvents()
	if len(evs) != 1 || evs[0].Access != AccessRead || evs[0].Data != nil {
		t.Fatalf("read watch events = %+v", evs)
	}
}

func TestCombinedWatchKinds(t *testing.T) {
	_, d := newTestDomain(t, 2)
	if err := d.WatchPage(0, AccessRead|AccessWrite); err != nil {
		t.Fatalf("WatchPage: %v", err)
	}
	_ = d.WritePhys(0, []byte{1})
	_ = d.ReadPhys(0, make([]byte, 1))
	if evs := d.PollEvents(); len(evs) != 2 {
		t.Fatalf("combined watch fired %d events, want 2", len(evs))
	}
}

func TestWatchOutOfRange(t *testing.T) {
	_, d := newTestDomain(t, 2)
	if err := d.WatchPage(99, AccessWrite); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("WatchPage(99): %v, want ErrBadAddress", err)
	}
}

func TestAccessDestroyedDomain(t *testing.T) {
	h := New(8)
	d, _ := h.CreateDomain("temp", 2)
	id := d.ID()
	if err := h.DestroyDomain(id); err != nil {
		t.Fatalf("DestroyDomain: %v", err)
	}
	if err := d.WritePhys(0, []byte{1}); !errors.Is(err, ErrBadState) {
		t.Fatalf("write to destroyed domain: %v, want ErrBadState", err)
	}
	if _, err := d.DumpMemory(); !errors.Is(err, ErrBadState) {
		t.Fatalf("dump of destroyed domain: %v, want ErrBadState", err)
	}
	if err := h.DestroyDomain(id); !errors.Is(err, ErrNoDomain) {
		t.Fatalf("double destroy: %v, want ErrNoDomain", err)
	}
}

// Property: snapshot/restore is the identity on domain memory for any
// write sequence applied in between.
func TestSnapshotRestoreIdentityProperty(t *testing.T) {
	_, d := newTestDomain(t, 8)
	f := func(writes [][]byte) bool {
		before, err := d.DumpMemory()
		if err != nil {
			return false
		}
		for i, w := range writes {
			if len(w) == 0 {
				continue
			}
			addr := uint64(i*977) % (d.MemBytes() - uint64(len(w)))
			if err := d.WritePhys(addr, w); err != nil {
				return false
			}
		}
		if err := d.RestoreMemory(before, allPages(d)); err != nil {
			return false
		}
		after, err := d.DumpMemory()
		if err != nil {
			return false
		}
		return bytes.Equal(before.Bytes(), after.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// allPages lists every page of d, for restoring a whole snapshot.
func allPages(d *Domain) []mem.PFN {
	pfns := make([]mem.PFN, d.Pages())
	for i := range pfns {
		pfns[i] = mem.PFN(i)
	}
	return pfns
}
