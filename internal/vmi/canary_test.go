package vmi

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"repro/internal/guestos"
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
