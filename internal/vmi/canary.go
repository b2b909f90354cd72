package vmi

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/guestos"
	"repro/internal/mem"
)

// CanaryEntry is one active guest canary-table record (guest-aided
// scanning): the guest-physical address of a canary and its expected
// value. The guest and the scanner share one record decoder.
type CanaryEntry = guestos.CanaryEntry

// canaryHeaderSize is the table header ahead of the first record: the
// live count (a hint the guest writes), the capacity, and padding.
const canaryHeaderSize = 16

// CanaryTable returns every live record of the guest agent's canary
// lookup table (found through the crimes_canary_table symbol), in slot
// order. With a walk memo attached it is answered from the memo's
// canary index, brought up to date first; without one the whole table
// is read and decoded.
func (c *Context) CanaryTable() ([]CanaryEntry, error) {
	if c.memo == nil {
		return c.canaryTable()
	}
	return c.memo.canaries(c, nil)
}

// DirtyCanaries returns the live records whose canary lies on a page
// set in dirty (non-nil), in slot order — the records an epoch's
// overflow audit must check. With a walk memo attached the memo's
// canary index answers it: a refresh re-reads only the table pages
// dirtied since the last one, and the lookup visits only dirty pages.
// Without a memo it is the whole-table decode, filtered.
func (c *Context) DirtyCanaries(dirty *mem.Bitmap) ([]CanaryEntry, error) {
	if c.memo != nil {
		return c.memo.canaries(c, dirty)
	}
	all, err := c.canaryTable()
	if err != nil {
		return nil, err
	}
	out := all[:0]
	for _, e := range all {
		if pfn := e.PA >> mem.PageShift; pfn < uint64(dirty.Len()) && dirty.Test(int(pfn)) {
			out = append(out, e)
		}
	}
	return out, nil
}

// canaryTable reads the whole table — header and every record, live or
// not — and decodes it in one pass, sized by the header's live count.
func (c *Context) canaryTable() ([]CanaryEntry, error) {
	_, live, body, err := c.readCanaryTable()
	if err != nil {
		return nil, err
	}
	return guestos.DecodeCanaryTable(c.prof, live, body), nil
}

// readCanaryTable reads the table header and every record after it. It
// returns the header's guest-physical address and live count and the
// record bytes, which live in the context's scratch buffer.
func (c *Context) readCanaryTable() (hdrPA uint64, live uint32, body []byte, err error) {
	base, err := c.Symbol("crimes_canary_table")
	if err != nil {
		return 0, 0, nil, err
	}
	var hdr [canaryHeaderSize]byte
	if err := c.ReadVA(base, hdr[:]); err != nil {
		return 0, 0, nil, fmt.Errorf("vmi canary table: %w", err)
	}
	capacity, err := canaryCapacity(hdr[:])
	if err != nil {
		return 0, 0, nil, err
	}
	body = c.scratchBuf(capacity * c.prof.CanaryEntrySize)
	if err := c.ReadVA(base+canaryHeaderSize, body); err != nil {
		return 0, 0, nil, fmt.Errorf("vmi canary table: %w", err)
	}
	return c.TranslateKV(base), binary.LittleEndian.Uint32(hdr[0:]), body, nil
}

// canaryCapacity returns the capacity word of a table header, or an
// error when it is not plausible.
func canaryCapacity(hdr []byte) (int, error) {
	capacity := int(binary.LittleEndian.Uint32(hdr[4:]))
	if capacity <= 0 || capacity > 1<<20 {
		return 0, fmt.Errorf("vmi canary table: implausible capacity %d", capacity)
	}
	return capacity, nil
}

// canaryIndex is a walk memo's decoded copy of the guest's canary
// table: the record in every live slot, a bitset of the live slots, and
// an index from the page holding each live canary to the slots that
// guard it.
//
// It is kept current by the memo's one invalidation feed: Invalidate
// marks the table pages the epoch dirtied stale, and the next lookup
// re-reads only those. Records are canaryHeaderSize + 24·i bytes into
// the table, so some straddle a page boundary; the records starting on
// page p are re-decoded when p or p+1 is stale (the rule of
// detect.NewIncrementalDeepScan), which covers every record that
// overlaps a stale page. A stale header page is re-read too: a changed
// capacity rebuilds the index with a full read, an implausible one
// fails the lookup as the whole-table read does.
type canaryIndex struct {
	hdrPA  uint64              // guest-physical address of the table header
	recs   []CanaryEntry       // by slot; meaningful where live is set
	live   []uint64            // bitset of the live slots
	nlive  int                 // set bits of live
	byPage map[mem.PFN][]int32 // canary page -> the live slots on it
	stale  []bool              // per table page, from the header's: dirtied since read
	nstale int                 // set entries of stale
	pfns   []mem.PFN           // a lookup's dirty pages, reused
}

// buildCanaryIndex reads and decodes the whole table into a new index.
func (c *Context) buildCanaryIndex() (*canaryIndex, error) {
	hdrPA, _, body, err := c.readCanaryTable()
	if err != nil {
		return nil, err
	}
	size := c.prof.CanaryEntrySize
	last := (hdrPA + canaryHeaderSize + uint64(len(body)) - 1) >> mem.PageShift
	capacity := len(body) / size
	ix := &canaryIndex{
		hdrPA:  hdrPA,
		recs:   make([]CanaryEntry, capacity),
		live:   make([]uint64, (capacity+63)/64),
		byPage: make(map[mem.PFN][]int32),
		stale:  make([]bool, last-hdrPA>>mem.PageShift+1),
	}
	for i := range ix.recs {
		ix.update(c.prof, i, body[i*size:])
	}
	return ix, nil
}

// refreshCanaryIndex re-reads the stale table pages and returns the
// index brought up to date: ix itself, or a rebuilt index when the
// capacity changed.
func (c *Context) refreshCanaryIndex(ix *canaryIndex) (*canaryIndex, error) {
	if ix.stale[0] {
		var hdr [canaryHeaderSize]byte
		if err := c.ReadPA(ix.hdrPA, hdr[:]); err != nil {
			return nil, fmt.Errorf("vmi canary table: %w", err)
		}
		capacity, err := canaryCapacity(hdr[:])
		if err != nil {
			return nil, err
		}
		if capacity != len(ix.recs) {
			return c.buildCanaryIndex()
		}
	}
	size := c.prof.CanaryEntrySize
	body := ix.hdrPA + canaryHeaderSize
	first := ix.hdrPA &^ (mem.PageSize - 1)
	// slotAt is the first slot whose record starts at or after pa.
	slotAt := func(pa uint64) int {
		if pa <= body {
			return 0
		}
		return min(int((pa-body+uint64(size)-1)/uint64(size)), len(ix.recs))
	}
	for p := 0; p < len(ix.stale); {
		if !ix.affected(p) {
			p++
			continue
		}
		end := p + 1
		for end < len(ix.stale) && ix.affected(end) {
			end++
		}
		lo := slotAt(first + uint64(p)*mem.PageSize)
		hi := slotAt(first + uint64(end)*mem.PageSize)
		if hi > lo {
			raw := c.scratchBuf((hi - lo) * size)
			if err := c.ReadPA(body+uint64(lo*size), raw); err != nil {
				return nil, fmt.Errorf("vmi canary table: %w", err)
			}
			for i := lo; i < hi; i++ {
				ix.update(c.prof, i, raw[(i-lo)*size:])
			}
		}
		p = end
	}
	clear(ix.stale)
	ix.nstale = 0
	return ix, nil
}

// affected reports whether the records starting on table page p may
// have changed: p or the page after it is stale.
func (ix *canaryIndex) affected(p int) bool {
	return ix.stale[p] || p+1 < len(ix.stale) && ix.stale[p+1]
}

// invalidate marks the table pages set in dirty stale and reports
// whether that made a current index stale.
func (ix *canaryIndex) invalidate(dirty *mem.Bitmap) bool {
	current := ix.nstale == 0
	first := int(ix.hdrPA >> mem.PageShift)
	for p := range ix.stale {
		if !ix.stale[p] && first+p < dirty.Len() && dirty.Test(first+p) {
			ix.stale[p] = true
			ix.nstale++
		}
	}
	return current && ix.nstale > 0
}

// update decodes the record of slot i from rec and re-files it.
func (ix *canaryIndex) update(prof *guestos.Profile, i int, rec []byte) {
	e, live := guestos.DecodeCanaryRecord(prof, i, rec)
	word, bit := i/64, uint64(1)<<(i%64)
	wasLive := ix.live[word]&bit != 0
	if live == wasLive && (!live || e == ix.recs[i]) {
		return
	}
	if wasLive {
		pfn := mem.PFN(ix.recs[i].PA >> mem.PageShift)
		slots := ix.byPage[pfn]
		k := slices.Index(slots, int32(i))
		slots[k] = slots[len(slots)-1]
		if slots = slots[:len(slots)-1]; len(slots) == 0 {
			delete(ix.byPage, pfn)
		} else {
			ix.byPage[pfn] = slots
		}
		ix.live[word] &^= bit
		ix.nlive--
	}
	if live {
		ix.recs[i] = e
		pfn := mem.PFN(e.PA >> mem.PageShift)
		ix.byPage[pfn] = append(ix.byPage[pfn], int32(i))
		ix.live[word] |= bit
		ix.nlive++
	}
}

// all returns every live record in slot order.
func (ix *canaryIndex) all() []CanaryEntry {
	if ix.nlive == 0 {
		return nil
	}
	out := make([]CanaryEntry, 0, ix.nlive)
	for w, word := range ix.live {
		for ; word != 0; word &= word - 1 {
			out = append(out, ix.recs[w*64+bits.TrailingZeros64(word)])
		}
	}
	return out
}

// onPages returns the live records whose canary lies on a page set in
// dirty, in slot order.
func (ix *canaryIndex) onPages(dirty *mem.Bitmap) []CanaryEntry {
	ix.pfns = dirty.ScanWords(ix.pfns[:0])
	n := 0
	for _, pfn := range ix.pfns {
		n += len(ix.byPage[pfn])
	}
	if n == 0 {
		return nil
	}
	out := make([]CanaryEntry, 0, n)
	for _, pfn := range ix.pfns {
		for _, i := range ix.byPage[pfn] {
			out = append(out, ix.recs[i])
		}
	}
	slices.SortFunc(out, func(a, b CanaryEntry) int { return cmp.Compare(a.Index, b.Index) })
	return out
}
