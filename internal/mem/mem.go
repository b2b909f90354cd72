// Package mem provides the machine-memory substrate for the simulated
// hypervisor: fixed-size page frames, a machine frame pool, and dirty
// bitmaps with both bit-granularity and word-granularity scanning (the
// latter is CRIMES Optimization 3, "Dirty Page Scan").
package mem

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
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
type Machine struct {
	mu        sync.RWMutex
	frames    [][]byte
	allocated []bool
	free      []MFN
}

// NewMachine creates a machine with the given number of page frames.
func NewMachine(frames int) *Machine {
	m := &Machine{
		frames:    make([][]byte, frames),
		allocated: make([]bool, frames),
		free:      make([]MFN, 0, frames),
	}
	for i := frames - 1; i >= 0; i-- {
		m.free = append(m.free, MFN(i))
	}
	return m
}

// TotalFrames reports the machine's frame count.
func (m *Machine) TotalFrames() int { return len(m.frames) }

// FreeFrames reports how many frames remain unallocated.
func (m *Machine) FreeFrames() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.free)
}

// Alloc allocates a single zeroed machine frame.
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
	m.allocated[mfn] = true
	if m.frames[mfn] == nil {
		m.frames[mfn] = make([]byte, PageSize)
	} else {
		clearPage(m.frames[mfn])
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

// Free releases a machine frame back to the pool.
func (m *Machine) Free(mfn MFN) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.checkLocked(mfn); err != nil {
		return err
	}
	m.allocated[mfn] = false
	m.free = append(m.free, mfn)
	return nil
}

// Frame returns the backing page for an allocated machine frame. The
// returned slice aliases machine memory: writes through it are writes to
// the machine frame. This is the moral equivalent of Xen's
// xenforeignmemory_map. The alias stays valid until the frame is
// exchanged (Exchange); after that it names the caller's old page, no
// longer the frame.
func (m *Machine) Frame(mfn MFN) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if err := m.checkLocked(mfn); err != nil {
		return nil, err
	}
	return m.frames[mfn], nil
}

// EachFrame resolves n frames under one read lock of the frame table,
// calling fn(i, frame) with the frame of mfn(i) for i = 0..n-1 in order,
// and stops at the first unallocated one. Bulk copies (memory dumps and
// restores) use it instead of one Frame call per page. fn runs under
// the lock, so it must not allocate, free or exchange frames.
func (m *Machine) EachFrame(n int, mfn func(i int) MFN, fn func(i int, frame []byte)) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for i := range n {
		f := mfn(i)
		if err := m.checkLocked(f); err != nil {
			return err
		}
		fn(i, m.frames[f])
	}
	return nil
}

// Exchange swaps the backing pages of the frames behind pfns with the
// caller's pages, without moving a byte: afterwards frame physmap[pfns[i]]
// is backed by what was pages[i], and pages[i] holds the page the frame
// had. view is the caller's PFN-indexed alias table of the same frames
// (len(physmap) entries); its entries for pfns are updated under the same
// write lock, so the table and the machine never disagree. view is nil
// when the domain has no such table.
//
// Exchange is all-or-nothing. It rejects, swapping nothing, PFNs that are
// not strictly ascending (which rules out duplicates) or not below
// len(physmap), a physmap entry that is not an allocated frame, a page
// whose length or capacity is not PageSize, and a non-nil view of the
// wrong length. physmap must map distinct PFNs to distinct frames, as a
// domain's does, and pages must alias no machine frame.
//
// Exchange invalidates every other alias of the exchanged frames (Frame,
// EachFrame): a domain's frames are exchanged either by the one owner of
// its long-lived alias table — its global mapping — or, when it has
// none, by the domain itself, so that no alias outlives the swap
// unnoticed.
func (m *Machine) Exchange(physmap []MFN, pfns []PFN, pages [][]byte, view [][]byte) error {
	if len(pages) != len(pfns) {
		return fmt.Errorf("mem: exchange %d frames with %d pages: %w", len(pfns), len(pages), ErrBadFrame)
	}
	if view != nil && len(view) != len(physmap) {
		return fmt.Errorf("mem: exchange: view of %d pages for %d frames: %w", len(view), len(physmap), ErrBadFrame)
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
	}
	for i, pfn := range pfns {
		f := physmap[pfn]
		m.frames[f], pages[i] = pages[i], m.frames[f]
		if view != nil {
			view[pfn] = m.frames[f]
		}
	}
	return nil
}

// GrowPages returns pool holding at least n pages of PageSize bytes, for
// staging pages an Exchange swaps into frames. The shortfall is allocated
// as one slab cut into full-capacity page views, never page by page: a
// full synchronization stages the whole guest.
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

func (m *Machine) checkLocked(mfn MFN) error {
	if uint64(mfn) >= uint64(len(m.frames)) || !m.allocated[mfn] {
		return fmt.Errorf("mem: frame %d: %w", mfn, ErrBadFrame)
	}
	return nil
}

func clearPage(p []byte) {
	for i := range p {
		p[i] = 0
	}
}

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
