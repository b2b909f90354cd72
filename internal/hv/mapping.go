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
	pages map[mem.PFN][]byte
}

// MapForeign maps the given guest pages of a domain. Pages remain valid
// until Unmap is called or their frame is exchanged
// (GlobalMapping.Exchange), whichever comes first.
func (h *Hypervisor) MapForeign(d *Domain, pfns []mem.PFN) (*ForeignMapping, error) {
	fm := &ForeignMapping{dom: d, pages: make(map[mem.PFN][]byte, len(pfns))}
	for _, pfn := range pfns {
		if uint64(pfn) >= uint64(len(d.physmap)) {
			return nil, fmt.Errorf("map foreign pfn %d: %w", pfn, ErrBadAddress)
		}
		if err := h.faults.Check(FaultMapPage); err != nil {
			return nil, fmt.Errorf("map foreign pfn %d: %w", pfn, err)
		}
		frame, err := h.machine.Frame(d.physmap[pfn])
		if err != nil {
			return nil, fmt.Errorf("map foreign pfn %d: %w", pfn, err)
		}
		h.countCalls(d, func(c *Hypercalls) { c.MapPage++ })
		fm.pages[pfn] = frame
	}
	return fm, nil
}

// Page returns the mapped view of a guest page.
func (fm *ForeignMapping) Page(pfn mem.PFN) ([]byte, error) {
	p, ok := fm.pages[pfn]
	if !ok {
		return nil, fmt.Errorf("foreign mapping: pfn %d not mapped: %w", pfn, ErrBadAddress)
	}
	return p, nil
}

// Len reports the number of mapped pages.
func (fm *ForeignMapping) Len() int { return len(fm.pages) }

// Unmap releases the mapping, one hypercall per page.
func (fm *ForeignMapping) Unmap() {
	n := len(fm.pages)
	fm.dom.hv.countCalls(fm.dom, func(c *Hypercalls) { c.UnmapPage += n })
	fm.pages = nil
}

// GlobalMapping is CRIMES Optimization 2: the full PFN-to-MFN table is
// resolved once at startup into a flat array (constant-time lookups,
// no per-epoch map/unmap hypercalls).
type GlobalMapping struct {
	dom    *Domain
	frames [][]byte
}

// MapAll builds a global mapping of every page of the domain. The
// per-page hypercall cost is paid once, here. Its pages stay valid until
// Unmap; the mapping's own Exchange keeps them valid across a frame
// exchange, which no other mapping of the domain survives.
func (h *Hypervisor) MapAll(d *Domain) (*GlobalMapping, error) {
	gm := &GlobalMapping{dom: d, frames: make([][]byte, len(d.physmap))}
	for pfn, mfn := range d.physmap {
		if err := h.faults.Check(FaultMapPage); err != nil {
			return nil, fmt.Errorf("map all pfn %d: %w", pfn, err)
		}
		frame, err := h.machine.Frame(mfn)
		if err != nil {
			return nil, fmt.Errorf("map all pfn %d: %w", pfn, err)
		}
		h.countCalls(d, func(c *Hypercalls) { c.MapPage++ })
		gm.frames[pfn] = frame
	}
	return gm, nil
}

// Page returns the premapped view of a guest page in O(1).
func (gm *GlobalMapping) Page(pfn mem.PFN) ([]byte, error) {
	if uint64(pfn) >= uint64(len(gm.frames)) {
		return nil, fmt.Errorf("global mapping: pfn %d: %w", pfn, ErrBadAddress)
	}
	return gm.frames[pfn], nil
}

// Len reports the number of premapped pages.
func (gm *GlobalMapping) Len() int { return len(gm.frames) }

// Exchange swaps the machine pages behind the domain's frames at pfns
// with the caller's pages (mem.Machine.Exchange): afterwards guest page
// pfns[i] reads what pages[i] held, and pages[i] holds the frame's old
// page. No bytes move. The mapping's frame table is updated under the
// machine's lock, so Page returns the live frame afterwards. It is
// all-or-nothing: pfns must be strictly ascending and in range and every
// page exactly one page long, or nothing is swapped.
//
// The mapping must be the domain's only long-lived alias of the frames
// (no CachedMapping, no ForeignMapping kept across the call), and
// Exchange must not run concurrently with Page.
func (gm *GlobalMapping) Exchange(pfns []mem.PFN, pages [][]byte) error {
	if gm.frames == nil {
		return fmt.Errorf("global mapping of domain %d: exchange after unmap: %w", gm.dom.id, ErrBadState)
	}
	if err := gm.dom.hv.machine.Exchange(gm.dom.physmap, pfns, pages, gm.frames); err != nil {
		return fmt.Errorf("domain %d: %w", gm.dom.id, err)
	}
	return nil
}

// Unmap releases the global mapping.
func (gm *GlobalMapping) Unmap() {
	n := len(gm.frames)
	gm.dom.hv.countCalls(gm.dom, func(c *Hypercalls) { c.UnmapPage += n })
	gm.frames = nil
}

// Exchange is GlobalMapping.Exchange for a domain that has no global
// mapping — a Memcpy or No-opt backup, a remote replica — so no alias
// table needs updating; a domain with one must exchange through it, or
// its table goes stale. No ForeignMapping may be used across the call.
// It fails with ErrBadState on a destroyed domain.
func (d *Domain) Exchange(pfns []mem.PFN, pages [][]byte) error {
	if d.state == StateDestroyed {
		return fmt.Errorf("exchange frames of destroyed domain %d: %w", d.id, ErrBadState)
	}
	if err := d.hv.machine.Exchange(d.physmap, pfns, pages, nil); err != nil {
		return fmt.Errorf("domain %d: %w", d.id, err)
	}
	return nil
}
