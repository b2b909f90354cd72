package mem

import (
	"bytes"
	"testing"
)

// FuzzDemandZeroMachine runs random frame operations — Alloc and Free,
// partial, zero and non-zero writes, reads, Exchange, Expose and Store —
// against an eagerly materialised reference, where every allocated frame
// simply is a zeroed page. Every read must match the reference; a frame
// never given a page must read the shared zero page; a page Expose handed
// out must keep its bytes; and the shared zero page must still be all
// zero at the end.
func FuzzDemandZeroMachine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 0, 9, 5, 3, 4, 0x5A, 3, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 4, 0, 3, 0, 5, 0, 1, 4, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 4, 3, 2, 0, 0, 7, 5, 1, 6, 3, 2, 0, 0, 3, 1, 0, 2, 0xFF, 0xFF, 7})
	f.Add([]byte{0, 6, 0, 1, 0, 6, 0, 0, 0, 6, 0, 2, 9, 4, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const frames = 6
		m := NewMachine(frames)
		ref := make(map[MFN]*Page) // allocated frame -> its contents
		exposed := make(map[MFN]bool)
		type held struct {
			page []byte
			want Page
		}
		var kept []held
		var pool [][]byte
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		allocated := func() []MFN {
			var out []MFN
			for mfn := range MFN(frames) {
				if ref[mfn] != nil {
					out = append(out, mfn)
				}
			}
			return out
		}
		pick := func() (MFN, bool) {
			live := allocated()
			if len(live) == 0 {
				return 0, false
			}
			return live[next()%len(live)], true
		}
		check := func(mfn MFN) {
			got, err := m.Frame(mfn)
			if err != nil {
				t.Fatalf("Frame(%d): %v", mfn, err)
			}
			if !bytes.Equal(got, ref[mfn][:]) || !bytes.Equal(m.Page(mfn)[:], got) {
				t.Fatalf("frame %d reads other bytes than the reference", mfn)
			}
			if !m.Written(mfn) && m.Page(mfn) != &zero {
				t.Fatalf("frame %d has no page but does not read the shared zero page", mfn)
			}
		}
		for len(ops) > 0 {
			switch next() % 8 {
			case 0: // Alloc
				mfn, err := m.Alloc()
				if len(allocated()) == frames {
					if err == nil {
						t.Fatal("Alloc on a full machine succeeded")
					}
					continue
				}
				if err != nil {
					t.Fatalf("Alloc: %v", err)
				}
				ref[mfn] = new(Page)
				check(mfn)
			case 1: // Free
				if mfn, ok := pick(); ok {
					if err := m.Free(mfn); err != nil {
						t.Fatalf("Free(%d): %v", mfn, err)
					}
					delete(ref, mfn)
					delete(exposed, mfn)
				}
			case 2: // Write: partial, zero or not, never into an exposed frame
				mfn, ok := pick()
				off := (next() << 4) % PageSize
				n := min(1+next()*17, PageSize-off)
				v := byte(next())
				if !ok || exposed[mfn] {
					continue
				}
				data := bytes.Repeat([]byte{v}, n)
				had := m.Written(mfn)
				if err := m.Write(mfn, off, data); err != nil {
					t.Fatalf("Write(%d): %v", mfn, err)
				}
				copy(ref[mfn][off:], data)
				if v == 0 && !had && m.Written(mfn) {
					t.Fatalf("a zero write gave frame %d a page", mfn)
				}
				check(mfn)
			case 3: // Read
				if mfn, ok := pick(); ok {
					check(mfn)
				}
			case 4: // Exchange an ascending subset of the allocated frames
				physmap := allocated()
				mask := next()
				var pfns []PFN
				for i := range physmap {
					if mask&(1<<i) != 0 {
						pfns = append(pfns, PFN(i))
					}
				}
				pool = GrowPages(pool, len(pfns))
				fill := byte(next())
				for i := range pfns {
					clear(pool[i])
					pool[i][i] = fill
				}
				staged := make([]Page, len(pfns))
				had := make([]bool, len(pfns))
				for i, pfn := range pfns {
					staged[i], had[i] = Page(pool[i]), m.Written(physmap[pfn])
				}
				if err := m.Exchange(physmap, pfns, pool[:len(pfns)]); err != nil {
					t.Fatalf("Exchange: %v", err)
				}
				for i, pfn := range pfns {
					mfn := physmap[pfn]
					back := pool[i]
					switch {
					case exposed[mfn] && back != nil:
						t.Fatalf("Exchange handed back frame %d's exposed page", mfn)
					case !exposed[mfn] && had[i] && back == nil:
						t.Fatalf("Exchange dropped frame %d's page, which no reader holds", mfn)
					case !had[i] && back != nil:
						t.Fatalf("Exchange handed back a page for frame %d, which had none", mfn)
					case back != nil && !bytes.Equal(back, ref[mfn][:]):
						t.Fatalf("Exchange handed back a page that is not frame %d's old one", mfn)
					case back != nil && (*Page)(back) == &zero:
						t.Fatal("Exchange handed back the shared zero page")
					}
					*ref[mfn] = staged[i]
					delete(exposed, mfn)
					check(mfn)
				}
				pool = RecyclePages(pool, len(pfns))
			case 5: // Expose some frames and keep their pages
				physmap := allocated()
				mask := next()
				var sel []MFN
				for i, mfn := range physmap {
					if mask&(1<<i) != 0 {
						sel = append(sel, mfn)
					}
				}
				err := m.Expose(len(sel), func(i int) MFN { return sel[i] }, func(i int, frame []byte) {
					kept = append(kept, held{page: frame, want: Page(frame)})
				})
				if err != nil {
					t.Fatalf("Expose: %v", err)
				}
				for _, mfn := range sel {
					if m.Written(mfn) {
						exposed[mfn] = true
					}
				}
			case 6: // Store whole pages: the zero page, a zero copy, or data
				mfn, ok := pick()
				kind, v := next()%3, byte(next())
				if !ok || exposed[mfn] {
					continue
				}
				src := new(Page)
				switch kind {
				case 0:
					src = &zero
				case 2:
					src[int(v)*16] = v | 1
				}
				had := m.Written(mfn)
				if err := m.Store(1, func(int) MFN { return mfn }, func(int) *Page { return src }); err != nil {
					t.Fatalf("Store(%d): %v", mfn, err)
				}
				*ref[mfn] = *src
				if kind < 2 && !had && m.Written(mfn) {
					t.Fatalf("storing a zero page gave frame %d a page", mfn)
				}
				check(mfn)
			case 7: // EachFrame over every allocated frame
				live := allocated()
				err := m.EachFrame(len(live), func(i int) MFN { return live[i] }, func(i int, frame []byte) {
					if !bytes.Equal(frame, ref[live[i]][:]) {
						t.Fatalf("EachFrame: frame %d reads other bytes than the reference", live[i])
					}
				})
				if err != nil {
					t.Fatalf("EachFrame: %v", err)
				}
			}
		}
		for _, mfn := range allocated() {
			check(mfn)
		}
		for i, h := range kept {
			if !bytes.Equal(h.page, h.want[:]) {
				t.Fatalf("exposed page %d changed after Expose handed it out", i)
			}
		}
		if zero != (Page{}) {
			t.Fatal("the shared zero page was written")
		}
	})
}
