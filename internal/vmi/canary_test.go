package vmi

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"repro/internal/guestos"
	"repro/internal/mem"
)

// TestCanaryHeaderCountIsAHint rewrites the table header's live count —
// a word the guest controls — and checks that any value, too low, exact,
// too high or absurd, decodes the same entries into a result no larger
// than the table.
func TestCanaryHeaderCountIsAHint(t *testing.T) {
	g, ctx := bootGuest(t, guestos.LinuxProfile())
	for _, name := range []string{"a", "b", "c"} {
		pid, err := g.StartProcess(name, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		var vas []uint64
		for i := 0; i < 12; i++ {
			va, err := g.Malloc(pid, 16+8*i)
			if err != nil {
				t.Fatal(err)
			}
			vas = append(vas, va)
		}
		for i := 0; i < len(vas); i += 3 {
			if err := g.Free(pid, vas[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := ctx.CanaryTable()
	if err != nil {
		t.Fatal(err)
	}
	live := uint32(len(want))
	capacity := g.Layout().CanaryCapacity
	hdrPA := g.Layout().CanaryTablePA
	var word [4]byte
	if err := g.Domain().ReadPhys(hdrPA, word[:]); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(word[:]); got != live {
		t.Fatalf("header live count %d, table has %d live entries", got, live)
	}
	for _, hint := range []uint32{0, live - 1, live, uint32(capacity), 0xFFFFFFFF} {
		binary.LittleEndian.PutUint32(word[:], hint)
		if err := g.Domain().WritePhys(hdrPA, word[:]); err != nil {
			t.Fatal(err)
		}
		got, err := ctx.CanaryTable()
		if err != nil {
			t.Fatalf("hint %d: %v", hint, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("hint %d: %d entries, want the %d of the exact count", hint, len(got), len(want))
		}
		if cap(got) > capacity {
			t.Fatalf("hint %d: result capacity %d exceeds the table's %d", hint, cap(got), capacity)
		}
	}
}

// flatMem is guest-physical memory held in one slice.
type flatMem []byte

func (m flatMem) ReadPhys(paddr uint64, buf []byte) error {
	if paddr > uint64(len(m)) || uint64(len(buf)) > uint64(len(m))-paddr {
		return errors.New("flatMem: read out of range")
	}
	copy(buf, m[paddr:])
	return nil
}

func (m flatMem) MemBytes() uint64 { return uint64(len(m)) }

// refCanaryTable is the linear reference decoder: validate the header's
// capacity, read every record, keep those whose state is non-zero. It
// ignores the live count entirely.
func refCanaryTable(prof *guestos.Profile, m flatMem) ([]CanaryEntry, error) {
	var hdr [16]byte
	if err := m.ReadPhys(0, hdr[:]); err != nil {
		return nil, err
	}
	capacity := int(binary.LittleEndian.Uint32(hdr[4:]))
	if capacity <= 0 || capacity > 1<<20 {
		return nil, errors.New("implausible capacity")
	}
	var out []CanaryEntry
	for i := 0; i < capacity; i++ {
		rec := make([]byte, prof.CanaryEntrySize)
		if err := m.ReadPhys(16+uint64(i*prof.CanaryEntrySize), rec); err != nil {
			return nil, err
		}
		if binary.LittleEndian.Uint32(rec[prof.CanaryOffState:]) != 0 {
			out = append(out, CanaryEntry{
				Index: i,
				PA:    binary.LittleEndian.Uint64(rec[prof.CanaryOffVA:]),
				Value: binary.LittleEndian.Uint64(rec[prof.CanaryOffValue:]),
			})
		}
	}
	return out, nil
}

// FuzzCanaryTable compares CanaryTable, cold and memoized, with the
// linear reference over arbitrary header words and record bytes. The
// table body is the fuzzed bytes repeated over at most 4096 records, so
// larger plausible capacities exercise the short-read error path.
func FuzzCanaryTable(f *testing.F) {
	rec := func(state uint32, pa, val uint64) []byte {
		b := make([]byte, 24)
		binary.LittleEndian.PutUint64(b[0:], pa)
		binary.LittleEndian.PutUint64(b[8:], val)
		binary.LittleEndian.PutUint32(b[16:], state)
		return b
	}
	two := append(append(rec(1, 0x1000, 7), rec(0, 0, 0)...), rec(1, 0x2008, 7)...)
	f.Add(uint32(2), uint32(6), two)
	f.Add(uint32(0), uint32(6), two)
	f.Add(uint32(0xFFFFFFFF), uint32(4096), two)
	f.Add(uint32(1), uint32(0), two)
	f.Add(uint32(1), uint32(1<<20+1), two)
	f.Add(uint32(3), uint32(5000), two)
	f.Add(uint32(3), uint32(9), []byte{})
	f.Add(uint32(5), uint32(7), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	prof := guestos.LinuxProfile()
	f.Fuzz(func(t *testing.T, live, capWord uint32, body []byte) {
		records := int(min(capWord, 4096))
		m := make(flatMem, 16, 16+records*prof.CanaryEntrySize)
		binary.LittleEndian.PutUint32(m[0:], live)
		binary.LittleEndian.PutUint32(m[4:], capWord)
		if len(body) > 0 {
			for len(m) < cap(m) {
				m = append(m, body[:min(len(body), cap(m)-len(m))]...)
			}
		}
		want, wantErr := refCanaryTable(prof, m)
		ctx := &Context{r: m, prof: prof, symbols: map[string]uint64{"crimes_canary_table": prof.KernelVirtBase}}
		check := func(what string) []CanaryEntry {
			got, err := ctx.CanaryTable()
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("%s: error %v, reference error %v", what, err, wantErr)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: %d entries, reference %d", what, len(got), len(want))
			}
			return got
		}
		// The decoder's own result is bounded by the table; memo
		// results are copies, sized by append.
		if got := check("cold"); cap(got) > int(capWord) {
			t.Fatalf("result capacity %d exceeds the table's %d", cap(got), capWord)
		}
		ctx.SetMemo(NewWalkMemo())
		check("miss")
		check("hit")
	})
}

// FuzzCanaryIndex drives the memo's canary index through a sequence of
// guest epochs and checks every lookup against the linear reference.
// The table (capacity 1000, header at guest-physical 0) fills pages 0-5
// of a 16-page guest; canaries live on pages 8-15. The fuzz input is a
// list of 4-byte operations — rewrite a record's canary address, value
// or state (some records straddle a page boundary), rewrite the
// header's live count or capacity, write a canary page — and epoch
// ends. At each epoch end the pages written since the last one are fed
// to Invalidate, and DirtyCanaries (memoized and cold) must return
// exactly the reference table filtered by those pages, and CanaryTable
// the whole reference table — or all of them fail.
func FuzzCanaryIndex(f *testing.F) {
	const (
		pages       = 16
		capacity    = 1000
		canaryFirst = 8
		recSize     = 24
	)
	// Record 340 starts on page 1 and its state word is the first word
	// of page 2: flipping it dirties page 2 only.
	const straddler = 340
	op := func(kind, a, b, c byte) []byte { return []byte{kind, a, b, c} }
	cat := func(ops ...[]byte) []byte { return slices.Concat(ops...) }
	f.Add(cat(op(5, 0, 0, 0), op(3, 0, 0, 9), op(4, 0, 0, 0)))                                 // retire the straddler
	f.Add(cat(op(5, 0, 0, 0), op(4, 0, 0, 0), op(5, 0, 0, 1), op(3, 0, 0, 9), op(4, 0, 0, 0))) // retire it, revive it
	f.Add(cat(op(0, 1, 84, 1), op(3, 1, 84, 1), op(4, 0, 0, 0), op(4, 0, 0, 0)))               // rewrite a value, then an untouched epoch
	f.Add(cat(op(1, 0, 3, 0), op(4, 0, 0, 0), op(2, 0, 0, 0), op(4, 0, 0, 0)))                 // the count, then the capacity word
	f.Add(cat(op(2, 3, 0, 0), op(4, 0, 0, 0), op(2, 0, 0, 0), op(3, 0, 0, 9), op(4, 0, 0, 0))) // an implausible capacity, then back
	f.Add(cat(op(2, 2, 0, 0), op(0, 3, 231, 2), op(3, 7, 0, 0), op(4, 0, 0, 0)))               // a larger capacity
	f.Add(cat(op(2, 1, 0, 0), op(3, 0, 0, 9), op(4, 0, 0, 0), op(5, 0, 0, 0), op(4, 0, 0, 0))) // a smaller capacity
	f.Add(cat(op(0, 0, 12, 0), op(0, 0, 12, 201), op(3, 0, 0, 1), op(4, 0, 0, 0)))             // move a canary, off the guest
	prof := guestos.LinuxProfile()
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := make(flatMem, pages*mem.PageSize)
		dirty := mem.NewBitmap(pages)
		write := func(pa uint64, b []byte) {
			if pa+uint64(len(b)) > uint64(len(m)) {
				return
			}
			copy(m[pa:], b)
			for p := pa >> mem.PageShift; p <= (pa+uint64(len(b))-1)>>mem.PageShift; p++ {
				dirty.Set(int(p))
			}
		}
		u32 := func(pa uint64, v uint32) { write(pa, binary.LittleEndian.AppendUint32(nil, v)) }
		u64 := func(pa uint64, v uint64) { write(pa, binary.LittleEndian.AppendUint64(nil, v)) }
		canaryPA := func(a, b byte) uint64 {
			return canaryFirst*mem.PageSize + (uint64(a)<<8|uint64(b))*8%((pages-canaryFirst)*mem.PageSize)
		}
		recPA := func(slot int) uint64 { return 16 + uint64(slot*recSize) }
		// Boot: every third slot and the straddler live, canaries spread
		// over pages 8-15.
		binary.LittleEndian.PutUint32(m[4:], capacity)
		for i := 0; i < capacity; i++ {
			if i%3 != 0 && i != straddler {
				continue
			}
			u64(recPA(i)+uint64(prof.CanaryOffVA), canaryPA(byte(i>>8), byte(i)))
			u64(recPA(i)+uint64(prof.CanaryOffValue), uint64(i))
			u32(recPA(i)+uint64(prof.CanaryOffState), 1)
			u32(0, binary.LittleEndian.Uint32(m)+1)
		}
		sym := map[string]uint64{"crimes_canary_table": prof.KernelVirtBase}
		cold := &Context{r: m, prof: prof, symbols: sym}
		memo := NewWalkMemo()
		warm := &Context{r: m, prof: prof, symbols: sym, memo: memo}

		epoch := 0
		check := func() {
			epoch++
			memo.Invalidate(dirty)
			all, refErr := refCanaryTable(prof, m)
			var want []CanaryEntry
			for _, e := range all {
				if pfn := e.PA >> mem.PageShift; pfn < pages && dirty.Test(int(pfn)) {
					want = append(want, e)
				}
			}
			for _, c := range []struct {
				name string
				ctx  *Context
			}{{"memoized", warm}, {"cold", cold}} {
				got, err := c.ctx.DirtyCanaries(dirty)
				if (err != nil) != (refErr != nil) {
					t.Fatalf("epoch %d %s: error %v, reference error %v", epoch, c.name, err, refErr)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("epoch %d %s: dirty canaries\n%v\nreference\n%v", epoch, c.name, got, want)
				}
			}
			got, err := warm.CanaryTable()
			if (err != nil) != (refErr != nil) || !slices.Equal(got, all) {
				t.Fatalf("epoch %d: memoized table %d entries (error %v), reference %d (error %v)",
					epoch, len(got), err, len(all), refErr)
			}
			dirty.ClearAll()
		}
		check() // builds the index
		for ; len(ops) >= 4; ops = ops[4:] {
			kind, a, b, c := ops[0]%6, ops[1], ops[2], ops[3]
			slot := int(uint16(a)<<8|uint16(b)) % capacity
			switch kind {
			case 0: // one field of one record
				switch c % 3 {
				case 0:
					pa := canaryPA(a, c)
					if c > 200 {
						pa = uint64(c) << 40 // off the guest
					}
					u64(recPA(slot)+uint64(prof.CanaryOffVA), pa)
				case 1:
					u64(recPA(slot)+uint64(prof.CanaryOffValue), uint64(c))
				case 2:
					u32(recPA(slot)+uint64(prof.CanaryOffState), uint32(c>>7))
				}
			case 1: // the live count, a hint
				u32(0, uint32(a)<<8|uint32(b))
			case 2: // the capacity
				u32(4, []uint32{capacity, capacity - 1, capacity + 700, 1<<20 + 1, 0}[a%5])
			case 3: // a canary page
				write(canaryPA(a, b), []byte{c})
			case 4:
				check()
			case 5: // the straddler's state word
				u32(recPA(straddler)+uint64(prof.CanaryOffState), uint32(c&1))
			}
		}
		check()
	})
}
