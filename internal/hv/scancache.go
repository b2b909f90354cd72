package hv

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/mem"
)

// ScanCacheStats counts a CachedMapping's activity. Misses equal the
// MapPage hypercalls the cache performed and Unmaps the UnmapPage
// hypercalls (evictions, invalidations, and flushes all unmap); hits
// and the per-entry invalidation sweep cost no hypercalls at all, which
// is the entire point of keeping mappings alive across epochs.
type ScanCacheStats struct {
	// Hits are reads served from an existing mapping: zero hypercalls.
	Hits int
	// Misses are reads that had to map the page: one MapPage each.
	Misses int
	// Evictions counts mappings dropped by the LRU capacity bound.
	Evictions int
	// Invalidations counts mappings dropped because the epoch's dirty
	// bitmap covered their page.
	Invalidations int
	// Swept counts cached entries examined by invalidation sweeps (the
	// sweep walks the cache, not the bitmap, so it is O(cached pages)).
	Swept int
	// Unmaps counts UnmapPage hypercalls (evictions + invalidations +
	// flushed entries).
	Unmaps int
}

// Sub returns the per-interval delta s - o (both taken from the same
// cache, o earlier).
func (s ScanCacheStats) Sub(o ScanCacheStats) ScanCacheStats {
	return ScanCacheStats{
		Hits:          s.Hits - o.Hits,
		Misses:        s.Misses - o.Misses,
		Evictions:     s.Evictions - o.Evictions,
		Invalidations: s.Invalidations - o.Invalidations,
		Swept:         s.Swept - o.Swept,
		Unmaps:        s.Unmaps - o.Unmaps,
	}
}

// Add accumulates another counter set into s.
func (s *ScanCacheStats) Add(o ScanCacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Invalidations += o.Invalidations
	s.Swept += o.Swept
	s.Unmaps += o.Unmaps
}

// HitRate reports hits / (hits + misses), or 0 before any access.
func (s ScanCacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CachedMapping is the scan path's page-mapping cache: a bounded LRU of
// foreign mappings kept alive across epochs, the moral equivalent of
// LibVMI's page cache. A hit reuses a live mapping for zero hypercalls;
// a miss pays one MapPage (evicting the least-recently-used mapping
// when full, one UnmapPage). The controller invalidates cached pages
// that the epoch's harvested dirty bitmap covers, so a steady-state
// scan maps only the pages the guest actually touched — O(dirty pages
// intersecting structures) instead of O(pages the scan reads).
//
// It implements vmi.PhysReader, so an introspection context built over
// it transparently reads guest memory through the cache. It is safe for
// concurrent use by parallel detector modules scanning one paused
// domain.
type CachedMapping struct {
	dom *Domain
	cap int

	mu    sync.Mutex
	pages map[mem.PFN]*list.Element // PFN -> *scanEntry element
	lru   *list.List                // front = most recently used
	stats ScanCacheStats
}

// scanEntry is one cached page mapping. It holds no page: a hit resolves
// the frame's current one through the machine.
type scanEntry struct {
	pfn mem.PFN
}

// NewCachedMapping creates a cache over the domain's guest-physical
// pages, holding at most capacity live mappings (capacity < 1 defaults
// to the whole domain). No pages are mapped until first use. A cached
// mapping resolves its frame's current page at every hit, so it sees a
// never-written frame's first write, and a frame exchange, without a
// remap.
func NewCachedMapping(d *Domain, capacity int) *CachedMapping {
	if capacity < 1 || capacity > d.Pages() {
		capacity = d.Pages()
	}
	return &CachedMapping{
		dom:   d,
		cap:   capacity,
		pages: make(map[mem.PFN]*list.Element, capacity),
		lru:   list.New(),
	}
}

// Cap returns the cache's mapping capacity in pages.
func (cm *CachedMapping) Cap() int { return cm.cap }

// SetCapacity rebounds the cache at capacity pages (clamped to [1,
// domain size]). Shrinking below the live mapping count evicts from the
// LRU tail immediately, paying the UnmapPage hypercalls; growing takes
// effect lazily as new pages map in. An SLO controller uses this to
// trade host mapping budget against audit latency at runtime.
func (cm *CachedMapping) SetCapacity(capacity int) {
	if capacity < 1 || capacity > cm.dom.Pages() {
		capacity = cm.dom.Pages()
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	cm.cap = capacity
	for cm.lru.Len() > cm.cap {
		cm.evictLocked(cm.lru.Back())
		cm.stats.Evictions++
	}
}

// Len reports the number of currently cached mappings.
func (cm *CachedMapping) Len() int {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.lru.Len()
}

// Stats returns the cache's cumulative counters.
func (cm *CachedMapping) Stats() ScanCacheStats {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.stats
}

// Page returns a mapped view of a guest page, mapping it on miss: the
// frame's current page, the shared zero page for a never-written one
// (mem.Machine.Page). The view is read-only.
func (cm *CachedMapping) Page(pfn mem.PFN) ([]byte, error) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.pageLocked(pfn)
}

func (cm *CachedMapping) pageLocked(pfn mem.PFN) ([]byte, error) {
	if el, ok := cm.pages[pfn]; ok {
		cm.lru.MoveToFront(el)
		cm.stats.Hits++
		return cm.dom.hv.machine.Page(cm.dom.physmap[pfn])[:], nil
	}
	d := cm.dom
	if uint64(pfn) >= uint64(len(d.physmap)) {
		return nil, fmt.Errorf("scan cache: pfn %d: %w", pfn, ErrBadAddress)
	}
	if err := d.hv.faults.Check(FaultMapPage); err != nil {
		return nil, fmt.Errorf("scan cache: map pfn %d: %w", pfn, err)
	}
	frame, err := d.hv.machine.Frame(d.physmap[pfn])
	if err != nil {
		return nil, fmt.Errorf("scan cache: map pfn %d: %w", pfn, err)
	}
	d.hv.countCalls(d, func(c *Hypercalls) { c.MapPage++ })
	cm.stats.Misses++
	if cm.lru.Len() >= cm.cap {
		cm.evictLocked(cm.lru.Back())
		cm.stats.Evictions++
	}
	cm.pages[pfn] = cm.lru.PushFront(&scanEntry{pfn: pfn})
	return frame, nil
}

// evictLocked drops one cached mapping, paying its UnmapPage hypercall.
func (cm *CachedMapping) evictLocked(el *list.Element) {
	e := el.Value.(*scanEntry)
	cm.lru.Remove(el)
	delete(cm.pages, e.pfn)
	cm.dom.hv.countCalls(cm.dom, func(c *Hypercalls) { c.UnmapPage++ })
	cm.stats.Unmaps++
}

// Invalidate drops every cached mapping whose page the dirty bitmap
// marks, returning the number dropped. The controller calls this at
// each epoch boundary with the harvested bitmap, before the audit
// scans: a page the guest wrote during the epoch must be freshly
// remapped (shadow paging may have moved its backing frame), while
// clean pages keep their live mappings.
func (cm *CachedMapping) Invalidate(dirty *mem.Bitmap) int {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	n := 0
	for el := cm.lru.Front(); el != nil; {
		next := el.Next()
		cm.stats.Swept++
		e := el.Value.(*scanEntry)
		if int(e.pfn) < dirty.Len() && dirty.Test(int(e.pfn)) {
			cm.evictLocked(el)
			cm.stats.Invalidations++
			n++
		}
		el = next
	}
	return n
}

// Flush drops every cached mapping (one UnmapPage each), returning the
// number dropped. The uncached scan configuration flushes after every
// audit, reproducing the map-per-page-touched-per-epoch behavior of an
// introspection stack with no page cache.
func (cm *CachedMapping) Flush() int {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	n := cm.lru.Len()
	for el := cm.lru.Front(); el != nil; {
		next := el.Next()
		cm.evictLocked(el)
		el = next
	}
	return n
}

// ReadPhys reads guest-physical memory through the cache, implementing
// vmi.PhysReader: each page the read touches is a cache hit or a
// mapped-on-miss insertion.
func (cm *CachedMapping) ReadPhys(paddr uint64, buf []byte) error {
	d := cm.dom
	if d.state == StateDestroyed {
		return fmt.Errorf("scan cache: domain %d destroyed: %w", d.id, ErrBadState)
	}
	end := paddr + uint64(len(buf))
	if end > d.MemBytes() || end < paddr {
		return fmt.Errorf("scan cache: read [%#x,%#x): %w", paddr, end, ErrBadAddress)
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	off := 0
	for off < len(buf) {
		pfn := mem.PFN((paddr + uint64(off)) >> mem.PageShift)
		inPage := int((paddr + uint64(off)) & (mem.PageSize - 1))
		n := mem.PageSize - inPage
		if n > len(buf)-off {
			n = len(buf) - off
		}
		frame, err := cm.pageLocked(pfn)
		if err != nil {
			return err
		}
		copy(buf[off:off+n], frame[inPage:inPage+n])
		off += n
	}
	return nil
}

// MemBytes reports the domain's guest-physical size, implementing
// vmi.PhysReader.
func (cm *CachedMapping) MemBytes() uint64 { return cm.dom.MemBytes() }
