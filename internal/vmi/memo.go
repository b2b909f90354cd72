package vmi

import (
	"sync"

	"repro/internal/mem"
)

// MemoStats counts incremental-walk memo activity.
type MemoStats struct {
	// Hits are walks answered from the memo: zero guest reads, zero
	// nodes walked.
	Hits int
	// Misses are walks that ran against guest memory (and recorded the
	// pages they touched).
	Misses int
	// Invalidated counts memo entries dropped because a page they
	// touched was dirtied.
	Invalidated int
}

// Sub returns the per-interval delta s - o.
func (s MemoStats) Sub(o MemoStats) MemoStats {
	return MemoStats{
		Hits:        s.Hits - o.Hits,
		Misses:      s.Misses - o.Misses,
		Invalidated: s.Invalidated - o.Invalidated,
	}
}

// Add accumulates another counter set into s.
func (s *MemoStats) Add(o MemoStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Invalidated += o.Invalidated
}

// memoEntry is one memoized walk result plus the guest pages the walk
// read. The entry stays valid exactly until one of those pages is
// dirtied: a kernel list cannot change without writing a page the walk
// touched (inserting, removing, or mutating a node rewrites a next
// pointer or record the walk read), so clean touched pages imply an
// identical re-walk.
type memoEntry struct {
	result any
	pages  []mem.PFN
}

// WalkMemo memoizes kernel-structure walks (process list, pid hash,
// module list, syscall table) across epochs and keeps an index of the
// canary table. Each walk miss records which guest pages the walk
// touched; at every epoch boundary the controller feeds the harvested
// dirty bitmap to Invalidate, which drops only entries whose touched
// pages were written. A steady-state scan therefore re-walks only the
// structures the guest actually modified.
//
// The canary table is not a walk entry: its header page is written by
// every canary registered or retired, so a whole-table entry would be
// dropped almost every epoch. The memo keeps it as a canaryIndex
// instead — every slot's decoded record and a canary-page → slots map —
// which Invalidate marks stale page by page and the next lookup
// (CanaryTable, DirtyCanaries) refreshes by re-reading only the stale
// table pages. A lookup against a stale index counts as a miss, one
// against a current index as a hit, and the index going stale as one
// invalidation, exactly as a whole-table entry would have counted.
//
// One memo is shared by a context and all its forks: concurrent scan
// modules asking for the same structure are single-flighted under the
// memo lock, so exactly one of them walks guest memory (or refreshes
// the canary index) and the total node/read counters stay
// deterministic regardless of module scheduling.
type WalkMemo struct {
	mu      sync.Mutex
	entries map[string]*memoEntry
	stats   MemoStats
	// trace is the touched-page set of the miss in progress, reused
	// (cleared) by every miss. A miss holds mu for its whole walk, so
	// one set serves the context and all its forks.
	trace map[mem.PFN]struct{}
	// canary is the canary-table index, nil until the first lookup
	// and after a failed one.
	canary *canaryIndex
}

// NewWalkMemo creates an empty memo.
func NewWalkMemo() *WalkMemo {
	return &WalkMemo{entries: make(map[string]*memoEntry), trace: make(map[mem.PFN]struct{})}
}

// Stats returns the memo's cumulative counters.
func (m *WalkMemo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Entries reports the number of currently memoized walks (the canary
// index is not one).
func (m *WalkMemo) Entries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Invalidate drops every memoized walk that touched a dirty page and
// marks the canary index's dirty table pages stale, returning the
// number of entries dropped (a current canary index going stale counts
// as one). The controller calls it at each epoch boundary, after
// harvesting the dirty bitmap and before the audit scans.
func (m *WalkMemo) Invalidate(dirty *mem.Bitmap) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for key, e := range m.entries {
		for _, pfn := range e.pages {
			if int(pfn) < dirty.Len() && dirty.Test(int(pfn)) {
				delete(m.entries, key)
				m.stats.Invalidated++
				n++
				break
			}
		}
	}
	if m.canary != nil && m.canary.invalidate(dirty) {
		m.stats.Invalidated++
		n++
	}
	return n
}

// canaries answers a canary-table lookup from the index, refreshing it
// first if it is stale (building it with a full read if there is none):
// the live records on pages set in dirty, or all of them for a nil
// dirty. The refresh holds the memo lock, so concurrent forks see one.
// A failed refresh drops the index; the next lookup rebuilds it.
func (m *WalkMemo) canaries(c *Context, dirty *mem.Bitmap) ([]CanaryEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ix := m.canary
	if ix != nil && ix.nstale == 0 {
		m.stats.Hits++
	} else {
		m.stats.Misses++
		m.canary = nil
		var err error
		if ix == nil {
			ix, err = c.buildCanaryIndex()
		} else {
			ix, err = c.refreshCanaryIndex(ix)
		}
		if err != nil {
			return nil, err
		}
		m.canary = ix
	}
	if dirty == nil {
		return ix.all(), nil
	}
	return ix.onPages(dirty), nil
}

// SetMemo attaches (or detaches, with nil) an incremental-walk memo.
// Attach only after Preprocess: results memoized before known-good
// state is captured would reflect boot-time structures with no dirty
// bitmap yet covering the gap. Forks created after SetMemo share the
// memo.
func (c *Context) SetMemo(m *WalkMemo) { c.memo = m }

// Memo returns the attached walk memo, or nil.
func (c *Context) Memo() *WalkMemo { return c.memo }

// memoized is memoShared with the result copied, so callers may mutate
// it.
func memoized[E any](c *Context, key string, walk func(*Context) ([]E, error)) ([]E, error) {
	res, err := memoShared(c, key, walk)
	if err != nil || c.memo == nil {
		return res, err
	}
	return append([]E(nil), res...), nil
}

// memoShared single-flights a structure walk through the context's
// memo. The walk is a method expression, not a method value, so that a
// hit allocates nothing. Without a memo it just runs the walk. On a hit
// the stored result itself is returned with zero guest reads; on a miss
// the walk runs with page tracing enabled and its result and
// touched-page set are stored. A stored result is never modified (Invalidate drops the
// entry, the next miss stores a new slice), so it stays valid for as
// long as the caller holds it, but the caller must not modify it
// either. The memo lock is held for the duration of a miss so
// concurrent forks asking for the same structure wait and then hit,
// keeping aggregate work counters deterministic.
func memoShared[E any](c *Context, key string, walk func(*Context) ([]E, error)) ([]E, error) {
	m := c.memo
	if m == nil {
		return walk(c)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.entries[key]; ok {
		m.stats.Hits++
		return e.result.([]E), nil
	}
	m.stats.Misses++
	clear(m.trace)
	c.trace = m.trace
	res, err := walk(c)
	c.trace = nil
	if err != nil {
		return nil, err
	}
	pages := make([]mem.PFN, 0, len(m.trace))
	for pfn := range m.trace {
		pages = append(pages, pfn)
	}
	m.entries[key] = &memoEntry{result: res, pages: pages}
	return res, nil
}

// tracePages records the guest pages a physical read touches into the
// active walk trace, if any.
func (c *Context) tracePages(paddr uint64, n int) {
	if c.trace == nil || n <= 0 {
		return
	}
	first := mem.PFN(paddr >> mem.PageShift)
	last := mem.PFN((paddr + uint64(n) - 1) >> mem.PageShift)
	for pfn := first; pfn <= last; pfn++ {
		c.trace[pfn] = struct{}{}
	}
}
