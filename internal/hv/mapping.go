package hv

import (
	"fmt"

	"repro/internal/mem"
)

// ForeignMapping maps selected pages of a domain into the caller's
// address space, the equivalent of xenforeignmemory_map. Each page
// mapped and unmapped costs a hypercall; Remus pays this every epoch
// for every dirty page, which CRIMES' Pre-map optimization avoids.
type ForeignMapping struct {
	dom   *Domain
	pages map[mem.PFN]mem.MFN
}

// MapForeign maps the given guest pages of a domain until Unmap is
// called. Like every mapping it resolves a page's frame through the
// machine at each Page call, so it sees a frame exchange and a
// never-written frame's first write.
func (h *Hypervisor) MapForeign(d *Domain, pfns []mem.PFN) (*ForeignMapping, error) {
	fm := &ForeignMapping{dom: d, pages: make(map[mem.PFN]mem.MFN, len(pfns))}
	for _, pfn := range pfns {
		if uint64(pfn) >= uint64(len(d.physmap)) {
			return nil, fmt.Errorf("map foreign pfn %d: %w", pfn, ErrBadAddress)
		}
		if err := h.faults.Check(FaultMapPage); err != nil {
			return nil, fmt.Errorf("map foreign pfn %d: %w", pfn, err)
		}
		if _, err := h.machine.Frame(d.physmap[pfn]); err != nil {
			return nil, fmt.Errorf("map foreign pfn %d: %w", pfn, err)
		}
		h.countCalls(d, func(c *Hypercalls) { c.MapPage++ })
		fm.pages[pfn] = d.physmap[pfn]
	}
	return fm, nil
}

// Page returns the mapped view of a guest page: the frame's current page
// (mem.Machine.Page), the shared zero page for a never-written one. The
// view is read-only; writes go through Domain.WritePhys.
func (fm *ForeignMapping) Page(pfn mem.PFN) ([]byte, error) {
	mfn, ok := fm.pages[pfn]
	if !ok {
		return nil, fmt.Errorf("foreign mapping: pfn %d not mapped: %w", pfn, ErrBadAddress)
	}
	return fm.dom.hv.machine.Page(mfn)[:], nil
}

// Len reports the number of mapped pages.
func (fm *ForeignMapping) Len() int { return len(fm.pages) }

// Unmap releases the mapping, one hypercall per page.
func (fm *ForeignMapping) Unmap() {
	n := len(fm.pages)
	fm.dom.hv.countCalls(fm.dom, func(c *Hypercalls) { c.UnmapPage += n })
	fm.pages = nil
}

// GlobalMapping is CRIMES Optimization 2: every page of the domain is
// mapped once at startup, so a lookup is constant-time and costs no
// per-epoch map/unmap hypercalls. It keeps no page table of its own:
// Page resolves the frame's current page through the machine,
// lock-free, so the mapping stays right across a frame exchange and a
// never-written frame's first write.
type GlobalMapping struct {
	dom *Domain
	n   int // pages mapped; 0 after Unmap
}

// MapAll builds a global mapping of every page of the domain. The
// per-page hypercall cost is paid once, here.
func (h *Hypervisor) MapAll(d *Domain) (*GlobalMapping, error) {
	for pfn, mfn := range d.physmap {
		if err := h.faults.Check(FaultMapPage); err != nil {
			return nil, fmt.Errorf("map all pfn %d: %w", pfn, err)
		}
		if _, err := h.machine.Frame(mfn); err != nil {
			return nil, fmt.Errorf("map all pfn %d: %w", pfn, err)
		}
		h.countCalls(d, func(c *Hypercalls) { c.MapPage++ })
	}
	return &GlobalMapping{dom: d, n: len(d.physmap)}, nil
}

// Page returns the premapped view of a guest page in O(1): the frame's
// current page, the shared zero page for a never-written one. The view is
// read-only, and it is the frame's page until the frame is given another
// (a write to a shared frame, a share, an exchange); callers take a fresh
// view per access.
func (gm *GlobalMapping) Page(pfn mem.PFN) ([]byte, error) {
	if uint64(pfn) >= uint64(gm.n) {
		return nil, fmt.Errorf("global mapping: pfn %d: %w", pfn, ErrBadAddress)
	}
	return gm.dom.hv.machine.Page(gm.dom.physmap[pfn])[:], nil
}

// Len reports the number of premapped pages.
func (gm *GlobalMapping) Len() int { return gm.n }

// Unmap releases the global mapping.
func (gm *GlobalMapping) Unmap() {
	gm.dom.hv.countCalls(gm.dom, func(c *Hypercalls) { c.UnmapPage += gm.n })
	gm.n = 0
}

// Exchange swaps the machine pages behind the domain's frames at pfns
// with the caller's pages (mem.Machine.Exchange): afterwards guest page
// pfns[i] reads what pages[i] held, and pages[i] holds the frame's old
// page — or nil when the frame had none (it read zero) or a snapshot or
// another domain holds that page (AliasMemory, ShareTo). No bytes move.
// It is all-or-nothing: pfns must be strictly ascending and in range and
// every page exactly one page long, or nothing is swapped. Every mapping
// of the domain sees the swap. It fails with ErrBadState on a destroyed
// domain. The remus restore side publishes a batch with it.
func (d *Domain) Exchange(pfns []mem.PFN, pages [][]byte) error {
	if d.state == StateDestroyed {
		return fmt.Errorf("exchange frames of destroyed domain %d: %w", d.id, ErrBadState)
	}
	if err := d.hv.machine.Exchange(d.physmap, pfns, pages); err != nil {
		return fmt.Errorf("domain %d: %w", d.id, err)
	}
	return nil
}

// ShareTo makes each page pfns of dst hold d's page by reference
// (mem.Machine.Share): no byte moves, and the next write to the page in
// either domain copies it first. The page dst held before becomes a
// spare for d's writes unless a snapshot holds it. A checkpoint commit shares the
// primary's dirty pages into the backup with it. It is all-or-nothing: a
// PFN out of either domain's range shares nothing. It fails with
// ErrBadState if either domain is destroyed.
func (d *Domain) ShareTo(dst *Domain, pfns []mem.PFN) error {
	if d.state == StateDestroyed || dst.state == StateDestroyed {
		return fmt.Errorf("share frames of domain %d into %d: %w", d.id, dst.id, ErrBadState)
	}
	if err := d.hv.machine.Share(&d.spares, d.physmap, dst.physmap, pfns); err != nil {
		return fmt.Errorf("share domain %d into %d: %w", d.id, dst.id, err)
	}
	return nil
}
