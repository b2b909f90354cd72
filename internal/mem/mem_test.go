package mem

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMachineAllocFree(t *testing.T) {
	m := NewMachine(4)
	if got := m.TotalFrames(); got != 4 {
		t.Fatalf("TotalFrames = %d, want 4", got)
	}
	mfns, err := m.AllocN(4)
	if err != nil {
		t.Fatalf("AllocN: %v", err)
	}
	if m.FreeFrames() != 0 {
		t.Fatalf("FreeFrames = %d, want 0", m.FreeFrames())
	}
	if _, err := m.Alloc(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("Alloc on full machine: err = %v, want ErrOutOfMemory", err)
	}
	seen := make(map[MFN]bool)
	for _, mfn := range mfns {
		if seen[mfn] {
			t.Fatalf("duplicate MFN %d", mfn)
		}
		seen[mfn] = true
	}
	if err := m.Free(mfns[0]); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if m.FreeFrames() != 1 {
		t.Fatalf("FreeFrames after free = %d, want 1", m.FreeFrames())
	}
}

func TestMachineAllocNInsufficient(t *testing.T) {
	m := NewMachine(2)
	if _, err := m.AllocN(3); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("AllocN(3) on 2-frame machine: err = %v, want ErrOutOfMemory", err)
	}
	if _, err := m.AllocN(-1); err == nil {
		t.Fatal("AllocN(-1) succeeded, want error")
	}
}

func TestFrameWriteVisibility(t *testing.T) {
	m := NewMachine(2)
	mfn, err := m.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	// A never-written frame reads the shared zero page; its first
	// non-zero write gives it a page of its own, which Frame then aliases.
	if err := m.Write(mfn, 1, []byte{1}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	p1, err := m.Frame(mfn)
	if err != nil {
		t.Fatalf("Frame: %v", err)
	}
	p1[0] = 0xAB
	p2, err := m.Frame(mfn)
	if err != nil {
		t.Fatalf("Frame: %v", err)
	}
	if p2[0] != 0xAB {
		t.Fatalf("frame write not visible through second mapping: got %#x", p2[0])
	}
	if len(p1) != PageSize {
		t.Fatalf("frame size = %d, want %d", len(p1), PageSize)
	}
}

func TestFrameReuseIsZeroed(t *testing.T) {
	m := NewMachine(1)
	mfn, err := m.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := m.Write(mfn, 100, []byte{0xFF}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := m.Free(mfn); err != nil {
		t.Fatalf("Free: %v", err)
	}
	mfn2, err := m.Alloc()
	if err != nil {
		t.Fatalf("Alloc after free: %v", err)
	}
	p2, _ := m.Frame(mfn2)
	if p2[100] != 0 {
		t.Fatalf("reused frame not zeroed: byte 100 = %#x", p2[100])
	}
	if !m.Written(mfn2) {
		t.Fatal("a reused frame dropped its page instead of clearing it")
	}
}

func TestFrameErrors(t *testing.T) {
	m := NewMachine(1)
	if _, err := m.Frame(0); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("Frame(unallocated): err = %v, want ErrBadFrame", err)
	}
	if _, err := m.Frame(99); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("Frame(out of range): err = %v, want ErrBadFrame", err)
	}
	if err := m.Free(0); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("Free(unallocated): err = %v, want ErrBadFrame", err)
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	for _, i := range []int{0, 63, 64, 127, 129} {
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 5 {
		t.Fatalf("Count = %d, want 5", b.Count())
	}
	b.Clear(64)
	if b.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	b.ClearAll()
	if b.Count() != 0 {
		t.Fatalf("Count after ClearAll = %d, want 0", b.Count())
	}
}

func TestBitmapScanEquivalenceFixed(t *testing.T) {
	b := NewBitmap(300)
	want := []PFN{0, 1, 63, 64, 65, 128, 255, 299}
	for _, p := range want {
		b.Set(int(p))
	}
	bits := b.ScanBits(nil)
	words := b.ScanWords(nil)
	if !pfnsEqual(bits, want) {
		t.Fatalf("ScanBits = %v, want %v", bits, want)
	}
	if !pfnsEqual(words, want) {
		t.Fatalf("ScanWords = %v, want %v", words, want)
	}
}

// Property: the optimized word scan returns exactly the same PFNs, in the
// same order, as the bit-by-bit scan, for any bitmap.
func TestBitmapScanEquivalenceProperty(t *testing.T) {
	f := func(setBits []uint16, size uint16) bool {
		n := int(size)%2048 + 1
		b := NewBitmap(n)
		for _, s := range setBits {
			b.Set(int(s) % n)
		}
		return pfnsEqual(b.ScanBits(nil), b.ScanWords(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Count always equals the number of PFNs either scan returns.
func TestBitmapCountMatchesScanProperty(t *testing.T) {
	f := func(setBits []uint16) bool {
		b := NewBitmap(4096)
		for _, s := range setBits {
			b.Set(int(s) % 4096)
		}
		return b.Count() == len(b.ScanWords(nil))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapCopyFrom(t *testing.T) {
	a := NewBitmap(100)
	a.Set(7)
	a.Set(99)
	b := NewBitmap(100)
	if err := b.CopyFrom(a); err != nil {
		t.Fatalf("CopyFrom: %v", err)
	}
	if !b.Test(7) || !b.Test(99) || b.Count() != 2 {
		t.Fatal("CopyFrom did not replicate contents")
	}
	c := NewBitmap(50)
	if err := c.CopyFrom(a); err == nil {
		t.Fatal("CopyFrom with mismatched lengths succeeded, want error")
	}
}

func TestBitmapAndNot(t *testing.T) {
	a := NewBitmap(100)
	for _, i := range []int{3, 64, 99} {
		a.Set(i)
	}
	b := NewBitmap(100)
	b.Set(64)
	b.Set(70) // not in a: clearing it is a no-op
	if err := a.AndNot(b); err != nil {
		t.Fatalf("AndNot: %v", err)
	}
	if !a.Test(3) || a.Test(64) || !a.Test(99) || a.Test(70) || a.Count() != 2 {
		t.Fatalf("AndNot left %v, want [3 99]", a.ScanWords(nil))
	}
	if err := a.AndNot(NewBitmap(50)); err == nil {
		t.Fatal("AndNot with mismatched lengths succeeded, want error")
	}
}

func TestBitmapWordScanLastPartialWord(t *testing.T) {
	// A bit set in the final, partial word must be found exactly once.
	b := NewBitmap(70)
	b.Set(69)
	got := b.ScanWords(nil)
	if len(got) != 1 || got[0] != 69 {
		t.Fatalf("ScanWords = %v, want [69]", got)
	}
}

func pfnsEqual(a, b []PFN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkBitmapScanBits(b *testing.B) {
	benchScan(b, func(bm *Bitmap, dst []PFN) []PFN { return bm.ScanBits(dst) })
}

func BenchmarkBitmapScanWords(b *testing.B) {
	benchScan(b, func(bm *Bitmap, dst []PFN) []PFN { return bm.ScanWords(dst) })
}

func benchScan(b *testing.B, scan func(*Bitmap, []PFN) []PFN) {
	// 4 GiB VM worth of pages with a realistic ~1% dirty rate.
	const pages = 4 << 30 / PageSize
	bm := NewBitmap(pages)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < pages/100; i++ {
		bm.Set(rng.Intn(pages))
	}
	dst := make([]PFN, 0, pages/64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = scan(bm, dst[:0])
	}
	_ = dst
}

// TestScanWordsParallelMatchesSerial: the sharded scan returns exactly
// the same PFNs, in the same ascending order, as the serial word scan —
// for small bitmaps (below the parallel threshold), large randomized
// ones (beyond 64Ki bits, where real sharding kicks in), and any worker
// count.
func TestScanWordsParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sizes := []int{1, 64, 300, 1 << 16, 1<<17 + 77}
	for _, n := range sizes {
		b := NewBitmap(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				b.Set(i)
			}
		}
		want := b.ScanWords(nil)
		for _, workers := range []int{1, 2, 4, 8} {
			got := b.ScanWordsParallel(nil, workers)
			if !pfnsEqual(got, want) {
				t.Fatalf("n=%d workers=%d: parallel scan diverged (got %d pfns, want %d)",
					n, workers, len(got), len(want))
			}
		}
		// Appending to a non-empty dst must preserve the prefix.
		prefix := []PFN{1234}
		got := b.ScanWordsParallel(prefix, 4)
		if len(got) != len(want)+1 || got[0] != 1234 || !pfnsEqual(got[1:], want) {
			t.Fatalf("n=%d: parallel scan mishandled non-empty dst", n)
		}
	}
}

// exchangeMachine returns a machine with a four-frame "domain" whose
// physmap maps PFN i to a distinct frame holding byte 0x10+i, plus four
// caller pages holding 0xA0+i.
func exchangeMachine(t *testing.T) (*Machine, []MFN, [][]byte) {
	t.Helper()
	m := NewMachine(6)
	physmap, err := m.AllocN(4)
	if err != nil {
		t.Fatalf("AllocN: %v", err)
	}
	physmap[1], physmap[3] = physmap[3], physmap[1] // frames need not ascend with PFNs
	pages := make([][]byte, 4)
	for i, mfn := range physmap {
		if err := m.Write(mfn, 0, []byte{byte(0x10 + i)}); err != nil {
			t.Fatalf("Write: %v", err)
		}
		pages[i] = make([]byte, PageSize)
		pages[i][0] = byte(0xA0 + i)
	}
	return m, physmap, pages
}

func TestExchangeSwapsPages(t *testing.T) {
	m, physmap, pages := exchangeMachine(t)
	before := make([]*Page, len(physmap))
	for pfn, mfn := range physmap {
		before[pfn] = m.Page(mfn)
	}
	in := []*byte{&pages[0][0], &pages[1][0]}
	if err := m.Exchange(physmap, []PFN{1, 3}, pages[:2]); err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	for i, pfn := range []PFN{1, 3} {
		f, _ := m.Frame(physmap[pfn])
		if &f[0] != in[i] || f[0] != byte(0xA0+i) {
			t.Fatalf("pfn %d: frame is not the caller's page %d", pfn, i)
		}
		if &m.Page(physmap[pfn])[0] != &f[0] {
			t.Fatalf("pfn %d: Page does not resolve the live frame", pfn)
		}
		if pages[i][0] != byte(0x10+pfn) {
			t.Fatalf("page %d holds %#x, want the frame's old page %#x", i, pages[i][0], 0x10+pfn)
		}
	}
	for _, pfn := range []PFN{0, 2} {
		if f, _ := m.Frame(physmap[pfn]); f[0] != byte(0x10+pfn) || m.Page(physmap[pfn]) != before[pfn] {
			t.Fatalf("pfn %d: untouched frame changed", pfn)
		}
	}
}

// Every reject case swaps nothing: frames and the caller's pages keep
// their identity.
func TestExchangeAllOrNothing(t *testing.T) {
	cases := []struct {
		name  string
		pfns  []PFN
		pages func(p [][]byte) [][]byte
		free  bool
	}{
		{name: "descending", pfns: []PFN{2, 1}},
		{name: "duplicate", pfns: []PFN{1, 1}},
		{name: "out-of-range", pfns: []PFN{0, 4}},
		{name: "unallocated", pfns: []PFN{0, 2}, free: true},
		{name: "short-page", pfns: []PFN{0, 1}, pages: func(p [][]byte) [][]byte { return [][]byte{p[0], p[1][:PageSize-1]} }},
		{name: "over-capacity-page", pfns: []PFN{0, 1}, pages: func(p [][]byte) [][]byte {
			return [][]byte{p[0], append(p[1][:PageSize:PageSize], 0)[:PageSize]}
		}},
		{name: "count-mismatch", pfns: []PFN{0, 1, 2}},
		{name: "zero-page", pfns: []PFN{0, 1}, pages: func(p [][]byte) [][]byte { return [][]byte{p[0], zero[:]} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, physmap, pages := exchangeMachine(t)
			if tc.free {
				if err := m.Free(physmap[2]); err != nil {
					t.Fatalf("Free: %v", err)
				}
			}
			arg := pages[:2]
			if tc.pages != nil {
				arg = tc.pages(pages)
			}
			before := make([]*byte, len(physmap))
			for pfn, mfn := range physmap {
				if f, err := m.Frame(mfn); err == nil {
					before[pfn] = &f[0]
				}
			}
			argBefore := make([]*byte, len(arg))
			for i, p := range arg {
				argBefore[i] = &p[0]
			}
			if err := m.Exchange(physmap, tc.pfns, arg); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("Exchange: err = %v, want ErrBadFrame", err)
			}
			for pfn, mfn := range physmap {
				if f, err := m.Frame(mfn); err == nil && &f[0] != before[pfn] {
					t.Fatalf("pfn %d: frame swapped by a rejected exchange", pfn)
				}
			}
			for i, p := range arg {
				if &p[0] != argBefore[i] {
					t.Fatalf("caller page %d swapped by a rejected exchange", i)
				}
			}
		})
	}
}

// Exchange keeps no caller's alias table (mappings resolve frames
// through the machine): the frames swap, all-or-nothing as ever, and a
// frame that never had a page hands back nil.
func TestExchangeWithoutView(t *testing.T) {
	m, physmap, pages := exchangeMachine(t)
	if err := m.Exchange(physmap, []PFN{2, 1}, pages[:2]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("descending Exchange: %v, want ErrBadFrame", err)
	}
	if err := m.Exchange(physmap, []PFN{2}, pages[:1]); err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if f, _ := m.Frame(physmap[2]); f[0] != 0xA0 || pages[0][0] != 0x12 {
		t.Fatalf("frame holds %#x and the caller %#x, want 0xa0 and the old 0x12", f[0], pages[0][0])
	}
	fresh, err := m.Alloc()
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	one := [][]byte{make([]byte, PageSize)}
	one[0][7] = 7
	if err := m.Exchange([]MFN{fresh}, []PFN{0}, one); err != nil || one[0] != nil {
		t.Fatalf("Exchange of a never-written frame handed back a page (%v), err %v", one[0] != nil, err)
	}
	if m.Page(fresh)[7] != 7 || !m.Written(fresh) {
		t.Fatal("the exchanged-in page is not the frame's")
	}
}

// GrowPages adds only the shortfall, as full-capacity pages, and keeps
// the pages it already held.
func TestGrowPages(t *testing.T) {
	pool := GrowPages(nil, 2)
	first := &pool[0][0]
	pool = GrowPages(pool, 5)
	if len(pool) != 5 || &pool[0][0] != first {
		t.Fatalf("grown pool of %d pages, first page kept: %v", len(pool), &pool[0][0] == first)
	}
	for i, p := range pool {
		if len(p) != PageSize || cap(p) != PageSize {
			t.Fatalf("page %d: len %d cap %d, want %d", i, len(p), cap(p), PageSize)
		}
	}
	if got := GrowPages(pool, 3); len(got) != 5 {
		t.Fatalf("GrowPages to fewer pages returned %d, want the pool unchanged", len(got))
	}
}

// An exposed page goes to no writer again: Exchange drops it (nil)
// instead of handing it back, Free detaches it instead of leaving it
// for the next Alloc to clear, and the mark leaves with the page. A
// frame that was never exposed keeps its page across Free and Alloc.
func TestExposedPagesAreNeverReused(t *testing.T) {
	m := NewMachine(3)
	physmap, err := m.AllocN(3)
	if err != nil {
		t.Fatalf("AllocN: %v", err)
	}
	for _, mfn := range physmap {
		if err := m.Write(mfn, 0, []byte{0x5A}); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	var held [][]byte
	if err := m.Expose(2, func(i int) MFN { return physmap[i] },
		func(_ int, frame []byte) { held = append(held, frame) }); err != nil {
		t.Fatalf("Expose: %v", err)
	}
	pages := [][]byte{make([]byte, PageSize), make([]byte, PageSize)}
	staged := pages[1]
	if err := m.Exchange(physmap, []PFN{1, 2}, pages); err != nil {
		t.Fatalf("Exchange: %v", err)
	}
	if pages[0] != nil {
		t.Fatal("Exchange handed an exposed page back for staging")
	}
	if pages[1] == nil || &pages[1][0] == &staged[0] {
		t.Fatal("Exchange dropped a page that was never exposed")
	}
	// The page exchanged into pfn 1 was never exposed: exchanging it out
	// again hands it back.
	again := [][]byte{make([]byte, PageSize)}
	if err := m.Exchange(physmap, []PFN{1}, again); err != nil || again[0] == nil {
		t.Fatalf("second Exchange of pfn 1: handed back %v, err %v", again[0] != nil, err)
	}
	plain, _ := m.Frame(physmap[2])
	for _, mfn := range physmap {
		if err := m.Free(mfn); err != nil {
			t.Fatalf("Free: %v", err)
		}
	}
	if _, err := m.AllocN(3); err != nil {
		t.Fatalf("AllocN: %v", err)
	}
	for i, p := range held {
		if p[0] != 0x5A {
			t.Fatalf("exposed page %d was cleared or rewritten after Free and Alloc", i)
		}
	}
	if f, _ := m.Frame(physmap[2]); &f[0] != &plain[0] || f[0] != 0 {
		t.Fatal("a never-exposed frame did not keep its (cleared) page across Free and Alloc")
	}
	if f, _ := m.Frame(physmap[0]); &f[0] == &held[0][0] || f[0] != 0 {
		t.Fatal("a freed exposed frame came back with the page its reader holds")
	}
}

// RecyclePages keeps at most four times the previous set (StageSpare at
// least), keeps the pages it does not trim, and replaces every dropped
// page with a fresh full-capacity one, all in one allocation.
func TestRecyclePages(t *testing.T) {
	pool := GrowPages(nil, 8*StageSpare)
	if got := RecyclePages(pool, 0); len(got) != StageSpare {
		t.Fatalf("after a first set, pool of %d pages, want StageSpare = %d", len(got), StageSpare)
	}
	if got := RecyclePages(pool, 3*StageSpare); len(got) != len(pool) {
		t.Fatalf("a pool within four times the previous set was trimmed to %d", len(got))
	}
	pool = GrowPages(nil, StageSpare)
	kept := &pool[1][0]
	allocs := testing.AllocsPerRun(10, func() {
		pool[0], pool[5] = nil, nil
		pool = RecyclePages(pool, StageSpare)
	})
	if allocs != 1 {
		t.Fatalf("replacing two dropped pages took %v allocations, want 1", allocs)
	}
	if &pool[1][0] != kept {
		t.Fatal("RecyclePages replaced a page it was not asked to")
	}
	for i, p := range pool {
		if len(p) != PageSize || cap(p) != PageSize {
			t.Fatalf("page %d: len %d cap %d after recycling, want %d", i, len(p), cap(p), PageSize)
		}
	}
}
