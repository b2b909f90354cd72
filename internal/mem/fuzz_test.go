package mem

import (
	"bytes"
	"testing"
)

// FuzzDemandZeroMachine runs random frame operations — Alloc and Free,
// partial, zero and non-zero writes, reads, Exchange, Expose, Install of
// a snapshot's page (a rollback), and Share (a commit) — against an
// eagerly materialised reference, where every allocated frame simply is
// a page of its own. Frames pair up as a checkpoint pairs a primary's
// frame with its backup's: even frame k shares into frame k+1 only, and
// only the backup side is exposed, as Share's contract asks. Every read must match the
// reference, so a write to a frame sharing its page never shows through
// the other; a frame never given a page must read the shared zero page; a
// page a snapshot holds (Expose, Install) must keep its bytes; no spare
// page may be one a frame or a snapshot holds; and the shared zero page
// must still be all zero at the end.
func FuzzDemandZeroMachine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 0, 9, 5, 3, 4, 0x5A, 3, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 4, 0, 3, 0, 5, 0, 1, 4, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 4, 3, 2, 0, 0, 7, 5, 1, 6, 3, 2, 0, 0, 3, 1, 0, 2, 0xFF, 0xFF, 7})
	f.Add([]byte{0, 6, 0, 1, 0, 6, 0, 0, 0, 6, 0, 2, 9, 4, 1, 0})
	f.Add([]byte{0, 0, 0, 2, 0, 0, 9, 8, 0, 1, 2, 0, 3, 7, 5, 3, 2, 1, 4, 9, 8, 1, 0, 2, 1, 3, 8, 6, 2, 0, 8, 0, 1, 1, 0})
	f.Add([]byte{0, 0, 0, 2, 1, 0, 5, 8, 0, 1, 5, 7, 2, 0, 0, 8, 6, 0, 1, 4, 0xFF, 0, 1, 1, 2, 1, 3, 9, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const frames = 6
		m := NewMachine(frames)
		ref := make(map[MFN]*Page) // allocated frame -> its contents
		// aliased marks a frame whose page a snapshot or another frame may
		// hold: it was exposed, installed or shared and not written since.
		aliased := make(map[MFN]bool)
		type held struct {
			page *Page
			want Page
		}
		var kept []held
		var pool [][]byte
		var sp Spares // the writes' and the shares' spare pages
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
		// invariants holds after every step: every frame reads the
		// reference, every snapshot page keeps its bytes, and the spare
		// list holds no page anything else does.
		invariants := func(step int) {
			t.Helper()
			for _, mfn := range allocated() {
				check(mfn)
			}
			inUse := make(map[*Page]bool)
			for mfn := range MFN(frames) {
				if p := m.pages[mfn].Load(); p != nil {
					inUse[p] = true
				}
			}
			for i, h := range kept {
				if *h.page != h.want {
					t.Fatalf("step %d: snapshot page %d changed after it was handed out", step, i)
				}
				inUse[h.page] = true
			}
			spare := make(map[*Page]bool, len(sp.pages))
			for _, p := range sp.pages {
				if inUse[p] || spare[p] || p == &zero {
					t.Fatalf("step %d: a spare page is held elsewhere or listed twice", step)
				}
				spare[p] = true
			}
		}
		for step := 0; len(ops) > 0; step++ {
			switch next() % 9 {
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
			case 1: // Free
				if mfn, ok := pick(); ok {
					if err := m.Free(mfn); err != nil {
						t.Fatalf("Free(%d): %v", mfn, err)
					}
					delete(ref, mfn)
					delete(aliased, mfn)
				}
			case 2: // Write: partial, zero or not, into any frame
				mfn, ok := pick()
				off := (next() << 4) % PageSize
				n := min(1+next()*17, PageSize-off)
				v := byte(next())
				if !ok {
					continue
				}
				data := bytes.Repeat([]byte{v}, n)
				had, before := m.Written(mfn), m.Page(mfn)
				if err := m.Write(&sp, mfn, off, data); err != nil {
					t.Fatalf("Write(%d): %v", mfn, err)
				}
				copy(ref[mfn][off:], data)
				switch {
				case v == 0 && !had && m.Written(mfn):
					t.Fatalf("a zero write gave frame %d a page", mfn)
				case aliased[mfn] && m.Page(mfn) == before:
					t.Fatalf("frame %d wrote a page held elsewhere in place", mfn)
				case had && !aliased[mfn] && m.Page(mfn) != before:
					t.Fatalf("frame %d copied a page of its own", mfn)
				}
				if m.Written(mfn) {
					delete(aliased, mfn)
				}
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
					case aliased[mfn] && back != nil:
						t.Fatalf("Exchange handed back frame %d's page, which is held elsewhere", mfn)
					case !aliased[mfn] && had[i] && back == nil:
						t.Fatalf("Exchange dropped frame %d's page, which nothing else holds", mfn)
					case !had[i] && back != nil:
						t.Fatalf("Exchange handed back a page for frame %d, which had none", mfn)
					case back != nil && !bytes.Equal(back, ref[mfn][:]):
						t.Fatalf("Exchange handed back a page that is not frame %d's old one", mfn)
					case back != nil && (*Page)(back) == &zero:
						t.Fatal("Exchange handed back the shared zero page")
					}
					*ref[mfn] = staged[i]
					delete(aliased, mfn)
				}
				pool = RecyclePages(pool, len(pfns))
			case 5: // Expose some backup frames and keep their pages
				physmap := allocated()
				mask := next()
				var sel []MFN
				for i, mfn := range physmap {
					if mask&(1<<i) != 0 && mfn%2 == 1 {
						sel = append(sel, mfn)
					}
				}
				err := m.Expose(len(sel), func(i int) MFN { return sel[i] }, func(i int, frame []byte) {
					kept = append(kept, held{page: (*Page)(frame), want: Page(frame)})
				})
				if err != nil {
					t.Fatalf("Expose: %v", err)
				}
				for _, mfn := range sel {
					if m.Written(mfn) {
						aliased[mfn] = true
					}
				}
			case 6: // Install a snapshot's page: the zero page, a kept page, or new data
				mfn, ok := pick()
				kind, v := next()%3, byte(next())
				if !ok {
					continue
				}
				src := &zero
				switch {
				case kind == 1 && len(kept) > 0:
					src = kept[int(v)%len(kept)].page
				case kind > 0:
					src = new(Page)
					src[int(v)*16] = v | 1
					kept = append(kept, held{page: src, want: *src})
				}
				if err := m.Install(1, func(int) MFN { return mfn }, func(int) *Page { return src }); err != nil {
					t.Fatalf("Install(%d): %v", mfn, err)
				}
				*ref[mfn] = *src
				delete(aliased, mfn)
				if src != &zero {
					aliased[mfn] = true
				} else if m.Written(mfn) {
					t.Fatalf("installing the zero page gave frame %d a page", mfn)
				}
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
			case 8: // Share a primary frame's page into its backup, as a commit does
				from, ok := pick()
				from &^= 1
				to := from + 1
				if !ok || ref[from] == nil || ref[to] == nil {
					continue
				}
				if err := m.Share(&sp, []MFN{from}, []MFN{to}, []PFN{0}); err != nil {
					t.Fatalf("Share(%d -> %d): %v", from, to, err)
				}
				*ref[to] = *ref[from]
				if m.Page(to) != m.Page(from) {
					t.Fatalf("Share(%d -> %d) did not hand over the page", from, to)
				}
				delete(aliased, to)
				if m.Written(from) {
					aliased[from], aliased[to] = true, true
				}
			}
			invariants(step)
		}
		if zero != (Page{}) {
			t.Fatal("the shared zero page was written")
		}
	})
}
