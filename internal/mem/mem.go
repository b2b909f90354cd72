// Package mem provides the machine-memory substrate for the simulated
// hypervisor: fixed-size page frames, a machine frame pool, and dirty
// bitmaps with both bit-granularity and word-granularity scanning (the
// latter is CRIMES Optimization 3, "Dirty Page Scan").
package mem

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

const (
	// PageSize is the size of a machine page frame in bytes.
	PageSize = 4096
	// PageShift is log2(PageSize).
	PageShift = 12
)

// PFN is a guest-physical Page Frame Number.
type PFN uint64

// MFN is a Machine Frame Number, indexing frames of host machine memory.
type MFN uint64

// InvalidMFN marks an unmapped PFN in a physmap.
const InvalidMFN = MFN(^uint64(0))

var (
	// ErrOutOfMemory is returned when the machine pool has no free frames.
	ErrOutOfMemory = errors.New("mem: out of machine memory")
	// ErrBadFrame is returned for out-of-range or unallocated frames.
	ErrBadFrame = errors.New("mem: bad machine frame")
)

// Machine models host physical memory as a pool of page frames. The
// allocator is safe for concurrent use: fleet workers create and destroy
// domains (and resolve frames) from parallel epoch loops.
//
// Frames are demand-zero: a newly allocated frame holds no page and reads
// as the one shared zero page, which nothing ever writes. A frame may
// also hold a page by reference that another frame or a snapshot holds
// too (Share, Install, Expose); such a frame is never written in place.
// Write gives a frame a page of its own — zeroed, or a copy of the page
// it held — on its first non-zero write or its first write after sharing,
// from the writer's spare pages (Spares). Each frame's page is an atomic
// pointer, so a reader resolves it without the lock (Page); the lock
// guards the allocation state and every change of a frame's page other
// than a write to it.
type Machine struct {
	mu    sync.RWMutex
	pages []atomic.Pointer[Page]
	state []frameState
	free  []MFN
}

// Page is the contents of one machine page.
type Page = [PageSize]byte

// zero is the page every frame without one of its own reads as.
var zero Page

// frameState is one frame's flags, kept in one byte so that a write finds
// them on the line its page load just read.
type frameState uint8

const (
	frameAllocated frameState = 1 << iota
	// frameExposed: a snapshot holds the frame's current page (Expose,
	// Install), so the page is never written in place and never becomes
	// a spare.
	frameExposed
	// frameShared: another frame may hold the frame's current page
	// (Share), so the page is never written in place.
	frameShared
)

// Spares are pages no frame and no snapshot holds, for writes that give a
// frame a page of its own: pages a commit's Share took out of frames, and
// fresh slabs. A domain keeps one list for its writes and commits, which
// its single owner makes in turn, so a copy on write takes no lock.
type Spares struct{ pages []*Page }

// spareSlab is how many pages Spares grows by, in one allocation, when a
// write finds it empty.
const spareSlab = 64

// take returns a spare page, growing the list by one slab when it is
// empty. The page holds stale bytes.
func (s *Spares) take() *Page {
	if len(s.pages) == 0 {
		slab := make([]Page, spareSlab)
		for i := range slab {
			s.pages = append(s.pages, &slab[i])
		}
	}
	p := s.pages[len(s.pages)-1]
	s.pages = s.pages[:len(s.pages)-1]
	return p
}

// NewMachine creates a machine with the given number of page frames. No
// page is allocated until a frame is written.
func NewMachine(frames int) *Machine {
	m := &Machine{
		pages: make([]atomic.Pointer[Page], frames),
		state: make([]frameState, frames),
		free:  make([]MFN, 0, frames),
	}
	for i := frames - 1; i >= 0; i-- {
		m.free = append(m.free, MFN(i))
	}
	return m
}

// TotalFrames reports the machine's frame count.
func (m *Machine) TotalFrames() int { return len(m.pages) }

// FreeFrames reports how many frames remain unallocated.
func (m *Machine) FreeFrames() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.free)
}

// Alloc allocates a single machine frame that reads as zeroes. A frame
// that kept the page of its own from an earlier allocation has it cleared
// and keeps it, so domain churn allocates nothing; any other frame holds
// no page and reads as the shared zero page until it is first written.
func (m *Machine) Alloc() (MFN, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allocLocked()
}

func (m *Machine) allocLocked() (MFN, error) {
	if len(m.free) == 0 {
		return InvalidMFN, ErrOutOfMemory
	}
	mfn := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.state[mfn] = frameAllocated
	if p := m.pages[mfn].Load(); p != nil {
		clear(p[:])
	}
	return mfn, nil
}

// AllocN allocates n machine frames atomically: either all n are
// allocated or none are.
func (m *Machine) AllocN(n int) ([]MFN, error) {
	if n < 0 {
		return nil, fmt.Errorf("mem: alloc %d frames: negative count", n)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.free) < n {
		return nil, fmt.Errorf("mem: alloc %d frames (%d free): %w", n, len(m.free), ErrOutOfMemory)
	}
	out := make([]MFN, n)
	for i := range out {
		mfn, err := m.allocLocked()
		if err != nil {
			return nil, err
		}
		out[i] = mfn
	}
	return out, nil
}

// Free releases a machine frame back to the pool. A page of its own stays
// with the frame, for its next allocation to clear. A page a snapshot or
// another frame may hold stays with them: the frame is detached from it,
// and its next allocation holds no page.
func (m *Machine) Free(mfn MFN) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkLocked(mfn); err != nil {
		return err
	}
	if m.state[mfn]&(frameExposed|frameShared) != 0 {
		m.pages[mfn].Store(nil)
	}
	m.state[mfn] = 0
	m.free = append(m.free, mfn)
	return nil
}

// Page returns the page frame mfn reads as, without taking the lock: its
// current page, or the shared zero page while it has none. The caller
// vouches that the frame is allocated (a live domain's frame) and must
// not write the page. It stays the frame's page until a write, a Share,
// an Install or an Exchange gives the frame another; a mapping resolves
// the frame again on every access rather than keep it.
func (m *Machine) Page(mfn MFN) *Page {
	if p := m.pages[mfn].Load(); p != nil {
		return p
	}
	return &zero
}

// Written reports whether frame mfn holds a page: it was written, or
// given one by a Share, an Install or an Exchange, since it was first
// allocated, or it kept a page of its own from an earlier allocation. A
// frame that has none reads zero.
func (m *Machine) Written(mfn MFN) bool { return m.pages[mfn].Load() != nil }

// Frame is Page for a caller that does not vouch for the frame: it fails
// with ErrBadFrame unless mfn is allocated. The slice aliases machine
// memory and is read-only, the moral equivalent of a read-only
// xenforeignmemory_map; a write goes through Write, which gives the frame
// a page of its own first.
func (m *Machine) Frame(mfn MFN) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkLocked(mfn); err != nil {
		return nil, err
	}
	return m.Page(mfn)[:], nil
}

// Write copies data into frame mfn from byte off of the page on; data
// must end within the page. A frame whose page is its own is written in
// place. Any other gets its own page from sp first (own) — a frame with
// none only when data is not all zero, which it already reads. Write
// takes no lock: the caller, the frame's domain's owner, vouches that the
// frame is allocated (only giving it a page checks) and changes it in no
// other way meanwhile. Write is the only way bytes reach a frame in
// place.
func (m *Machine) Write(sp *Spares, mfn MFN, off int, data []byte) error {
	p := m.pages[mfn].Load()
	if p == nil || m.state[mfn]&(frameExposed|frameShared) != 0 {
		if p == nil && isZero(data) {
			return nil
		}
		var err error
		if p, err = m.own(sp, mfn, off, off+len(data)); err != nil {
			return err
		}
	}
	copy(p[off:], data)
	return nil
}

// own gives frame mfn a page from sp holding what the frame reads — zero,
// or the bytes of the page it shares — outside [lo, hi), which the write
// about to land covers, and returns it. The page it held stays with the
// frames and snapshots that hold it too.
func (m *Machine) own(sp *Spares, mfn MFN, lo, hi int) (*Page, error) {
	if err := m.checkLocked(mfn); err != nil {
		return nil, err
	}
	p := sp.take()
	if old := m.pages[mfn].Load(); old != nil {
		copy(p[:lo], old[:lo])
		copy(p[hi:], old[hi:])
	} else {
		clear(p[:lo])
		clear(p[hi:])
	}
	m.pages[mfn].Store(p)
	m.state[mfn] &^= frameExposed | frameShared
	return p, nil
}

// Share makes frame to[pfn] hold frame from[pfn]'s page, by reference,
// for each pfn, and marks both frames shared, so the next write to either
// copies the page first. No byte moves. A frame without a page shares
// none, and a snapshot's hold on from[pfn]'s page (Install) passes on.
//
// The page to[pfn] held before goes to sp, the spares of from's writes,
// unless it is the one it now shares or a snapshot holds it (Expose,
// Install). That is the only way a page becomes a spare. It rests on the
// pairing a checkpoint keeps: frame to[pfn] takes pages only from frame
// from[pfn], whose pages are never exposed, so once from[pfn] has copied
// away (its PFN is dirty) to[pfn] holds the old page alone.
//
// from and to must map PFNs to distinct frames, as two domains' physmaps
// do. Share is all-or-nothing: it rejects, sharing nothing, a PFN not
// below both physmaps' lengths or whose frame on either side is not
// allocated.
func (m *Machine) Share(sp *Spares, from, to []MFN, pfns []PFN) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, pfn := range pfns {
		if uint64(pfn) >= uint64(min(len(from), len(to))) {
			return fmt.Errorf("mem: share pfn %d of %d: %w", pfn, min(len(from), len(to)), ErrBadFrame)
		}
		if err := m.checkLocked(from[pfn]); err != nil {
			return fmt.Errorf("mem: share pfn %d: %w", pfn, err)
		}
		if err := m.checkLocked(to[pfn]); err != nil {
			return fmt.Errorf("mem: share pfn %d: %w", pfn, err)
		}
	}
	for _, pfn := range pfns {
		src, dst := from[pfn], to[pfn]
		p := m.pages[src].Load()
		if old := m.pages[dst].Swap(p); old != p {
			if old != nil && m.state[dst]&frameExposed == 0 {
				sp.pages = append(sp.pages, old)
			}
			m.state[dst] &^= frameExposed
		}
		if p != nil {
			m.state[src] |= frameShared
			m.state[dst] |= frameShared | m.state[src]&frameExposed
		}
	}
	return nil
}

// Install makes frame mfn(i) hold page src(i) of a snapshot, by
// reference, for i = 0..n-1 in order, under one hold of the lock, and
// stops at the first unallocated frame. The frame is marked exposed, so
// it never writes the page in place and the page never becomes a spare;
// the shared zero page is installed as no page at all. The page the
// frame held is left to whatever else holds it and is not reused.
// Rolling back by restoring from a snapshot uses it.
func (m *Machine) Install(n int, mfn func(i int) MFN, src func(i int) *Page) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range n {
		f := mfn(i)
		if err := m.checkLocked(f); err != nil {
			return err
		}
		p := src(i)
		if p == &zero {
			p = nil
		}
		if m.pages[f].Swap(p) != p {
			m.state[f] &^= frameExposed | frameShared
		}
		if p != nil {
			m.state[f] |= frameExposed
		}
	}
	return nil
}

// EachFrame resolves n frames under one read lock of the frame table,
// calling fn(i, frame) with the page frame mfn(i) reads as (Page) for
// i = 0..n-1 in order, and stops at the first unallocated one. Bulk
// copies out of a domain (memory dumps) use it instead of one Frame call
// per page. frame is read-only, and fn runs under the lock, so it must
// not allocate, free, write or exchange frames.
func (m *Machine) EachFrame(n int, mfn func(i int) MFN, fn func(i int, frame []byte)) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := range n {
		f := mfn(i)
		if err := m.checkLocked(f); err != nil {
			return err
		}
		fn(i, m.Page(f)[:])
	}
	return nil
}

// Expose is EachFrame for a reader that keeps the frames' pages: fn may
// retain frame past the call, so from then on nothing writes that page in
// place. Each frame that holds a page is marked exposed until the page
// leaves it: a write then copies the page first, Share and Exchange drop
// it instead of reusing it, and Free detaches it instead of leaving it
// for the next Alloc to clear. A frame without one hands fn the zero
// page and stays unmarked. Expose takes the write lock, since it sets the
// marks; fn must not allocate, free, write or exchange frames.
func (m *Machine) Expose(n int, mfn func(i int) MFN, fn func(i int, frame []byte)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range n {
		f := mfn(i)
		if err := m.checkLocked(f); err != nil {
			return err
		}
		if m.Written(f) {
			m.state[f] |= frameExposed
		}
		fn(i, m.Page(f)[:])
	}
	return nil
}

// Exchange swaps the backing pages of the frames behind pfns with the
// caller's pages, without moving a byte: afterwards frame physmap[pfns[i]]
// is backed by what was pages[i], and pages[i] holds the page the frame
// had. It is nil instead, for the caller to replace (RecyclePages), when
// the frame had no page (it read as the zero page) or its page was
// exposed (Expose) or shared (Share) and is left to the others holding
// it.
//
// Exchange is all-or-nothing. It rejects, swapping nothing, PFNs that are
// not strictly ascending (which rules out duplicates) or not below
// len(physmap), a physmap entry that is not an allocated frame, and a
// page whose length or capacity is not PageSize, and the shared zero
// page itself. physmap must map
// distinct PFNs to distinct frames, as a domain's does, and pages must
// alias no machine frame.
//
// A page read from the frames before the call (Page, Frame, EachFrame)
// is the old one afterwards; mappings resolve the frame again on every
// access, so they see the swap.
func (m *Machine) Exchange(physmap []MFN, pfns []PFN, pages [][]byte) error {
	if len(pages) != len(pfns) {
		return fmt.Errorf("mem: exchange %d frames with %d pages: %w", len(pfns), len(pages), ErrBadFrame)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, pfn := range pfns {
		if i > 0 && pfn <= pfns[i-1] {
			return fmt.Errorf("mem: exchange: pfn %d after %d not ascending: %w", pfn, pfns[i-1], ErrBadFrame)
		}
		if uint64(pfn) >= uint64(len(physmap)) {
			return fmt.Errorf("mem: exchange: pfn %d of %d: %w", pfn, len(physmap), ErrBadFrame)
		}
		if err := m.checkLocked(physmap[pfn]); err != nil {
			return fmt.Errorf("mem: exchange pfn %d: %w", pfn, err)
		}
		if len(pages[i]) != PageSize || cap(pages[i]) != PageSize {
			return fmt.Errorf("mem: exchange pfn %d: page of %d bytes (cap %d): %w", pfn, len(pages[i]), cap(pages[i]), ErrBadFrame)
		}
		if (*Page)(pages[i]) == &zero {
			return fmt.Errorf("mem: exchange pfn %d: the shared zero page: %w", pfn, ErrBadFrame)
		}
	}
	for i, pfn := range pfns {
		f := physmap[pfn]
		old := m.pages[f].Swap((*Page)(pages[i]))
		pages[i] = nil
		if old != nil && m.state[f]&(frameExposed|frameShared) == 0 {
			pages[i] = old[:]
		}
		m.state[f] &^= frameExposed | frameShared
	}
	return nil
}

// GrowPages returns pool holding at least n pages of PageSize bytes, for
// staging pages an Exchange swaps into frames. The shortfall is allocated
// as one slab cut into full-capacity page views, never page by page.
func GrowPages(pool [][]byte, n int) [][]byte {
	short := n - len(pool)
	if short <= 0 {
		return pool
	}
	slab := make([]byte, short*PageSize)
	grown := make([][]byte, len(pool), n)
	copy(grown, pool)
	for o := 0; o < len(slab); o += PageSize {
		grown = append(grown, slab[o:o+PageSize:o+PageSize])
	}
	return grown
}

// StageSpare is the staging-page count a pool always keeps.
const StageSpare = 64

// RecyclePages readies a staging pool for the next set once an Exchange
// has published a set from it. The pool keeps no more than four times
// prev, the page count of the set published before that one (at least
// StageSpare), so neither a full synchronization nor a one-off burst
// pins a guest-sized pool; and every page the exchange handed back as
// nil — an image holds it, or the frame had none — is replaced, all from
// one slab, so no staging page is ever one an image holds. A frame
// without a page hands back nil only the first time it is exchanged.
func RecyclePages(pool [][]byte, prev int) [][]byte {
	if keep := max(StageSpare, 4*prev); len(pool) > keep {
		pool = slices.Clone(pool[:keep])
	}
	dropped := 0
	for _, p := range pool {
		if p == nil {
			dropped++
		}
	}
	if dropped == 0 {
		return pool
	}
	slab := make([]byte, dropped*PageSize)
	for i, p := range pool {
		if p == nil {
			pool[i], slab = slab[:PageSize:PageSize], slab[PageSize:]
		}
	}
	return pool
}

func (m *Machine) checkLocked(mfn MFN) error {
	if uint64(mfn) >= uint64(len(m.pages)) || m.state[mfn]&frameAllocated == 0 {
		return fmt.Errorf("mem: frame %d: %w", mfn, ErrBadFrame)
	}
	return nil
}

// isZero reports whether p holds only zero bytes.
func isZero(p []byte) bool { return bytes.Equal(p, zero[:len(p)]) }

// Bitmap is a dirty-page bitmap, one bit per PFN.
type Bitmap struct {
	words []uint64
	nbits int
}

// NewBitmap creates a bitmap covering nbits pages.
func NewBitmap(nbits int) *Bitmap {
	return &Bitmap{
		words: make([]uint64, (nbits+63)/64),
		nbits: nbits,
	}
}

// Len reports the number of bits the bitmap covers.
func (b *Bitmap) Len() int { return b.nbits }

// Set marks bit i.
func (b *Bitmap) Set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear unmarks bit i.
func (b *Bitmap) Clear(i int) {
	b.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Test reports whether bit i is set.
func (b *Bitmap) Test(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// ClearAll unmarks every bit.
func (b *Bitmap) ClearAll() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Count reports the number of set bits.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.words {
		n += popcount(w)
	}
	return n
}

// ScanBits collects set bits by testing every bit individually. This is
// Remus's original linear scan: cost grows with total VM size regardless
// of how many pages are dirty.
func (b *Bitmap) ScanBits(dst []PFN) []PFN {
	for i := 0; i < b.nbits; i++ {
		if b.Test(i) {
			dst = append(dst, PFN(i))
		}
	}
	return dst
}

// ScanWords collects set bits by first testing machine words and only
// descending into non-zero words. This is CRIMES Optimization 3: most
// memory is clean, so most words are zero and are skipped in one compare.
func (b *Bitmap) ScanWords(dst []PFN) []PFN {
	for wi, w := range b.words {
		if w == 0 {
			continue
		}
		base := wi << 6
		for w != 0 {
			bit := trailingZeros(w)
			i := base + bit
			if i >= b.nbits {
				break
			}
			dst = append(dst, PFN(i))
			w &= w - 1
		}
	}
	return dst
}

// scanParallelMinWords is the bitmap size below which ScanWordsParallel
// falls back to the serial scan: sharding a small bitmap costs more in
// goroutine dispatch than the scan itself.
const scanParallelMinWords = 1024

// ScanWordsParallel is ScanWords sharded across a worker pool for
// multi-GB dirty bitmaps (the Figure 6b axis: scan cost grows with VM
// size even when almost every word is zero). The word array is split
// into contiguous, disjoint shards — one per worker — each scanned
// independently; shard results are concatenated in shard order, so the
// returned PFNs are in the same ascending order ScanWords produces.
// workers <= 1 (or a small bitmap) degrades to the serial scan.
func (b *Bitmap) ScanWordsParallel(dst []PFN, workers int) []PFN {
	if workers > len(b.words) {
		workers = len(b.words)
	}
	if workers <= 1 || len(b.words) < scanParallelMinWords {
		return b.ScanWords(dst)
	}
	parts := make([][]PFN, workers)
	per := (len(b.words) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := lo + per
		if hi > len(b.words) {
			hi = len(b.words)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var out []PFN
			for wi := lo; wi < hi; wi++ {
				word := b.words[wi]
				if word == 0 {
					continue
				}
				base := wi << 6
				for word != 0 {
					i := base + trailingZeros(word)
					if i >= b.nbits {
						break
					}
					out = append(out, PFN(i))
					word &= word - 1
				}
			}
			parts[w] = out
		}(w, lo, hi)
	}
	wg.Wait()
	for _, part := range parts {
		dst = append(dst, part...)
	}
	return dst
}

// AndNot clears every bit that is set in src. The bitmaps must be the
// same length.
func (b *Bitmap) AndNot(src *Bitmap) error {
	if b.nbits != src.nbits {
		return fmt.Errorf("mem: and-not bitmap: length mismatch %d != %d", b.nbits, src.nbits)
	}
	for i, w := range src.words {
		b.words[i] &^= w
	}
	return nil
}

// CopyFrom replaces this bitmap's contents with src's. The bitmaps must
// be the same length.
func (b *Bitmap) CopyFrom(src *Bitmap) error {
	if b.nbits != src.nbits {
		return fmt.Errorf("mem: copy bitmap: length mismatch %d != %d", b.nbits, src.nbits)
	}
	copy(b.words, src.words)
	return nil
}

func popcount(w uint64) int { return bits.OnesCount64(w) }

func trailingZeros(w uint64) int { return bits.TrailingZeros64(w) }
