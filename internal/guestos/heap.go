package guestos

import (
	"encoding/binary"
	"fmt"
)

// CanarySize is the width of the tripwire placed after each heap object
// by the guest's malloc wrapper (§4.2: "an 8 byte canary at the end of
// each heap object").
const CanarySize = 8

const heapAlign = 16

// doAlloc allocates size bytes on the process heap, places a canary
// after the object, and registers the canary in the guest's canary
// lookup table for the hypervisor-side scanner.
func (g *Guest) doAlloc(pid uint32, size int) (uint64, error) {
	p, err := g.writable(pid)
	if err != nil {
		return 0, err
	}
	if size <= 0 {
		return 0, fmt.Errorf("guestos: malloc %d bytes: non-positive size", size)
	}
	need := alignUp(size+CanarySize, heapAlign)

	va := uint64(0)
	// First-fit reuse from the free list (deterministic order).
	for i, blk := range p.freeBlocks {
		if blk.size >= need {
			va = blk.va
			if blk.size == need {
				p.freeBlocks = append(p.freeBlocks[:i], p.freeBlocks[i+1:]...)
			} else {
				p.freeBlocks[i] = heapBlock{va: blk.va + uint64(need), size: blk.size - need}
			}
			break
		}
	}
	if va == 0 {
		if p.heapBump+uint64(need) > p.heapEnd {
			return 0, fmt.Errorf("guestos: pid %d malloc %d: %w", pid, size, ErrOutOfGuestMemory)
		}
		va = p.heapBump
		p.heapBump += uint64(need)
	}

	canaryVA := va + uint64(size)
	canaryPA, err := g.TranslateUser(pid, canaryVA)
	if err != nil {
		return 0, err
	}
	if err := g.writeU64(canaryPA, g.canarySecret); err != nil {
		return 0, err
	}
	idx, err := g.registerCanary(canaryPA)
	if err != nil {
		return 0, err
	}
	p.allocs[va] = allocInfo{size: size, canaryIdx: idx}
	return va, nil
}

// doFree releases a heap object and retires its canary entry.
func (g *Guest) doFree(pid uint32, va uint64) error {
	p, err := g.writable(pid)
	if err != nil {
		return err
	}
	info, ok := p.allocs[va]
	if !ok {
		return fmt.Errorf("guestos: pid %d free %#x: %w", pid, va, ErrBadFree)
	}
	if err := g.retireCanary(info.canaryIdx); err != nil {
		return err
	}
	delete(p.allocs, va)
	p.freeBlocks = append(p.freeBlocks, heapBlock{
		va:   va,
		size: alignUp(info.size+CanarySize, heapAlign),
	})
	return nil
}

// AllocSize reports the live allocation size at va, if any.
func (g *Guest) AllocSize(pid uint32, va uint64) (int, bool) {
	p, err := g.Process(pid)
	if err != nil {
		return 0, false
	}
	info, ok := p.allocs[va]
	return info.size, ok
}

// LiveAllocs reports the number of live heap objects for a process.
func (g *Guest) LiveAllocs(pid uint32) int {
	p, err := g.Process(pid)
	if err != nil {
		return 0
	}
	return len(p.allocs)
}

// --- canary table ----------------------------------------------------------

// CanaryEntry mirrors one guest canary-table record as the hypervisor
// scanner sees it.
type CanaryEntry struct {
	Index int
	PA    uint64 // guest-physical address of the 8-byte canary
	Value uint64 // expected canary value
}

func (g *Guest) canaryEntryPA(idx int) uint64 {
	return g.layout.CanaryTablePA + canaryHeaderSize + uint64(idx*g.prof.CanaryEntrySize)
}

func (g *Guest) registerCanary(pa uint64) (int, error) {
	cap := g.layout.CanaryCapacity
	for n := 0; n < cap; n++ {
		idx := (g.canaryHint + n) % cap
		entryPA := g.canaryEntryPA(idx)
		state, err := g.readU32(entryPA + uint64(g.prof.CanaryOffState))
		if err != nil {
			return 0, err
		}
		if state != 0 {
			continue
		}
		if err := g.writeU64(entryPA+uint64(g.prof.CanaryOffVA), pa); err != nil {
			return 0, err
		}
		if err := g.writeU64(entryPA+uint64(g.prof.CanaryOffValue), g.canarySecret); err != nil {
			return 0, err
		}
		if err := g.writeU32(entryPA+uint64(g.prof.CanaryOffState), 1); err != nil {
			return 0, err
		}
		g.canaryHint = (idx + 1) % cap
		if err := g.bumpCanaryCount(1); err != nil {
			return 0, err
		}
		return idx, nil
	}
	return 0, fmt.Errorf("guestos: canary table full (%d entries): %w", cap, ErrNoSlot)
}

func (g *Guest) retireCanary(idx int) error {
	entryPA := g.canaryEntryPA(idx)
	if err := g.writeU32(entryPA+uint64(g.prof.CanaryOffState), 0); err != nil {
		return err
	}
	return g.bumpCanaryCount(-1)
}

func (g *Guest) bumpCanaryCount(delta int) error {
	count, err := g.readU32(g.layout.CanaryTablePA)
	if err != nil {
		return err
	}
	return g.writeU32(g.layout.CanaryTablePA, uint32(int(count)+delta))
}

// ActiveCanaries parses the guest canary table from memory and returns
// the active entries, exactly as the hypervisor-side scan module does.
func (g *Guest) ActiveCanaries() ([]CanaryEntry, error) {
	return ParseCanaryTable(g.prof, g.layout, func(pa uint64, buf []byte) error {
		return g.dom.ReadPhys(pa, buf)
	})
}

// ParseCanaryTable reads the canary table through an arbitrary physical
// reader (a live domain or a memory dump).
func ParseCanaryTable(prof *Profile, layout Layout, readPhys func(uint64, []byte) error) ([]CanaryEntry, error) {
	hdr := make([]byte, canaryHeaderSize)
	if err := readPhys(layout.CanaryTablePA, hdr); err != nil {
		return nil, fmt.Errorf("guestos: read canary header: %w", err)
	}
	capacity := int(binary.LittleEndian.Uint32(hdr[4:]))
	if capacity != layout.CanaryCapacity {
		return nil, fmt.Errorf("guestos: canary table capacity %d, layout says %d", capacity, layout.CanaryCapacity)
	}
	raw := make([]byte, capacity*prof.CanaryEntrySize)
	if err := readPhys(layout.CanaryTablePA+canaryHeaderSize, raw); err != nil {
		return nil, fmt.Errorf("guestos: read canary entries: %w", err)
	}
	return DecodeCanaryTable(prof, binary.LittleEndian.Uint32(hdr[0:]), raw), nil
}

// DecodeCanaryTable decodes the active records of a canary table body
// (the records after the header, len(body)/prof.CanaryEntrySize of
// them) in one pass. live is the header's live count. The guest writes
// it, so it only sizes the result: it is clamped to the table's
// capacity, and if it is too low the result grows once, to capacity.
// The result's capacity never exceeds the table's.
func DecodeCanaryTable(prof *Profile, live uint32, body []byte) []CanaryEntry {
	capacity := len(body) / prof.CanaryEntrySize
	var out []CanaryEntry
	if n := min(int64(live), int64(capacity)); n > 0 {
		out = make([]CanaryEntry, 0, n)
	}
	for i := 0; i < capacity; i++ {
		e, live := DecodeCanaryRecord(prof, i, body[i*prof.CanaryEntrySize:])
		if !live {
			continue
		}
		if len(out) == cap(out) {
			out = append(make([]CanaryEntry, 0, capacity), out...)
		}
		out = append(out, e)
	}
	return out
}

// DecodeCanaryRecord decodes the record at table index i, held in the
// first prof.CanaryEntrySize bytes of rec; live is false for a free
// slot (state word zero). It is the one record decoder: the whole-table
// decode above and the scanner's incremental canary index both use it.
func DecodeCanaryRecord(prof *Profile, i int, rec []byte) (e CanaryEntry, live bool) {
	if binary.LittleEndian.Uint32(rec[prof.CanaryOffState:]) == 0 {
		return CanaryEntry{}, false
	}
	return CanaryEntry{
		Index: i,
		PA:    binary.LittleEndian.Uint64(rec[prof.CanaryOffVA:]),
		Value: binary.LittleEndian.Uint64(rec[prof.CanaryOffValue:]),
	}, true
}

func alignUp(n, align int) int {
	return (n + align - 1) &^ (align - 1)
}
