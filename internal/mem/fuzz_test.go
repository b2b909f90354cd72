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
// frame with its backup's, as Share's contract asks: even frame k shares
// into frame k+1 only; only the backup side is exposed; and a backup
// frame takes pages from Share alone, so it is never written, exchanged
// or installed over, and is freed only with its primary. Every read must
// match the reference, so a write to a frame sharing its page never shows
// through the other; a frame never given a page must read the shared
// zero page; a page a snapshot holds (Expose, Install) must keep its
// bytes; no spare page may be one a frame or a snapshot holds, nor be
// listed twice; an exchange must put each page it stages from the spares
// into its frame and give the spares exactly the old pages nothing else
// holds; and the shared zero page must still be all zero at the end. The
// checks after a step cost the same however long the history: the
// snapshot pages are a set, looked up rather than walked, and a step
// compares the bytes of only the pages it could have written; every
// snapshot page's bytes are compared once more at the end.
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
		held := make(map[*Page]*Page) // snapshot page -> a copy of the bytes it must keep
		var kept []*Page              // held's pages, in the order handed out
		keep := func(p *Page) {
			if want := held[p]; want != nil && *want != *p {
				t.Fatal("a snapshot page changed after it was handed out")
			} else if want == nil {
				want = new(Page)
				*want = *p
				held[p] = want
				kept = append(kept, p)
			}
		}
		var sp Spares // the writes', the shares' and the exchanges' spare pages
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
		// primaries are the allocated even frames, which alone take pages
		// other than by Share.
		primaries := func() []MFN {
			var out []MFN
			for _, mfn := range allocated() {
				if mfn%2 == 0 {
					out = append(out, mfn)
				}
			}
			return out
		}
		pickOf := func(live []MFN) (MFN, bool) {
			if len(live) == 0 {
				return 0, false
			}
			return live[next()%len(live)], true
		}
		pick := func() (MFN, bool) { return pickOf(allocated()) }
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
		// reference, no page the step may have written (touched) is a
		// snapshot's with other bytes than it was handed out with, and the
		// spare list holds no page anything else does, nor one twice. The
		// spares are mirrored as a set (spare, listed), which a step
		// changes only past the longest prefix of the list it left alone.
		var touched []*Page
		spare := make(map[*Page]bool)
		var listed []*Page
		invariants := func(step int) {
			t.Helper()
			for _, mfn := range allocated() {
				check(mfn)
			}
			for _, p := range touched {
				if want := held[p]; want != nil && *p != *want {
					t.Fatalf("step %d: a snapshot page changed after it was handed out", step)
				}
			}
			touched = touched[:0]
			k := 0
			for k < min(len(listed), len(sp.pages)) && listed[k] == sp.pages[k] {
				k++
			}
			for _, p := range listed[k:] {
				delete(spare, p)
			}
			for _, p := range sp.pages[k:] {
				if held[p] != nil || spare[p] || p == &zero {
					t.Fatalf("step %d: a spare page is a snapshot's or listed twice", step)
				}
				spare[p] = true
			}
			listed = append(listed[:k], sp.pages[k:]...)
			for mfn := range MFN(frames) {
				if p := m.pages[mfn].Load(); p != nil && spare[p] {
					t.Fatalf("step %d: frame %d holds a spare page", step, mfn)
				}
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
				touched = append(touched, m.Page(mfn))
				ref[mfn] = new(Page)
			case 1: // Free a frame, and a backup frame's primary with it
				if mfn, ok := pick(); ok {
					for _, f := range []MFN{mfn, mfn &^ 1} {
						if ref[f] == nil {
							continue
						}
						if err := m.Free(f); err != nil {
							t.Fatalf("Free(%d): %v", f, err)
						}
						delete(ref, f)
						delete(aliased, f)
					}
				}
			case 2: // Write: partial, zero or not, into a primary frame
				mfn, ok := pickOf(primaries())
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
				touched = append(touched, before, m.Page(mfn))
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
			case 4: // Exchange an ascending subset of the primary frames
				physmap := primaries()
				mask := next()
				var pfns []PFN
				for i := range physmap {
					if mask&(1<<i) != 0 {
						pfns = append(pfns, PFN(i))
					}
				}
				fill := byte(next())
				staged := make([]*Page, len(pfns))
				old := make([]*Page, len(pfns))
				for i, pfn := range pfns {
					staged[i], old[i] = sp.Take(), m.pages[physmap[pfn]].Load()
					*staged[i] = Page{}
					staged[i][i] = fill
				}
				spares := len(sp.pages)
				if err := m.Exchange(&sp, physmap, pfns, staged); err != nil {
					t.Fatalf("Exchange: %v", err)
				}
				// The spares gain exactly the old pages nothing else holds,
				// in PFN order.
				var back []*Page
				for i, pfn := range pfns {
					mfn := physmap[pfn]
					if m.Page(mfn) != staged[i] {
						t.Fatalf("Exchange did not put the page staged for pfn %d into frame %d", pfn, mfn)
					}
					if old[i] != nil && !aliased[mfn] {
						if !bytes.Equal(old[i][:], ref[mfn][:]) {
							t.Fatalf("frame %d held other bytes than the reference before the exchange", mfn)
						}
						back = append(back, old[i])
					}
					*ref[mfn] = *staged[i]
					delete(aliased, mfn)
				}
				if got := sp.pages[spares:]; len(got) != len(back) {
					t.Fatalf("Exchange gave the spares %d pages, want the %d old pages nothing else holds", len(got), len(back))
				} else {
					for i := range back {
						if got[i] != back[i] {
							t.Fatalf("Exchange gave the spares a page that is not an old one nothing else holds")
						}
					}
				}
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
					if p := (*Page)(frame); p != &zero {
						keep(p)
					}
				})
				if err != nil {
					t.Fatalf("Expose: %v", err)
				}
				for _, mfn := range sel {
					if m.Written(mfn) {
						aliased[mfn] = true
					}
				}
			case 6: // Install a snapshot's page into a primary frame: the zero page, a kept page, or new data
				mfn, ok := pickOf(primaries())
				kind, v := next()%3, byte(next())
				if !ok {
					continue
				}
				src := &zero
				switch {
				case kind == 1 && len(kept) > 0:
					src = kept[int(v)%len(kept)]
				case kind > 0:
					src = new(Page)
					src[int(v)*16] = v | 1
					keep(src)
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
		for p, want := range held {
			if *p != *want {
				t.Fatal("a snapshot page changed after it was handed out")
			}
		}
		if zero != (Page{}) {
			t.Fatal("the shared zero page was written")
		}
	})
}
