package hv

import (
	"fmt"

	"repro/internal/mem"
)

// Snapshot is an immutable image of a domain's memory and vCPU state at
// a point in time, used for memory dumps and for restoring a replay VM.
//
// The image is a page table over 4 KiB pages that are never written
// after the snapshot is built, so snapshots derived from one another
// (DumpDirty, AliasDirty) share every page they did not re-copy, and a
// snapshot may be kept, shared between goroutines and read concurrently
// without copying. A dump copies its pages; an alias (AliasMemory,
// AliasDirty) shares them with the domain's frames, which the machine
// then never writes in place (mem.Machine.Expose), and holds the shared
// zero page for every frame that never had a page. The table is a radix
// tree of fixed fan-out: deriving a snapshot copies the root and the
// nodes on the paths to the re-copied pages, so its cost in time and
// bytes depends on how many pages changed, not on the size of the guest.
type Snapshot struct {
	Name  string
	Pages int
	VCPU  VCPU

	depth int // directory levels above the leaves; root covers fan^(depth+1) pages
	root  dir
}

const (
	fanBits = 6
	fan     = 1 << fanBits
	fanMask = fan - 1
)

type page = mem.Page

// leaf maps fan consecutive PFNs to their pages.
type leaf [fan]*page

// dir is an interior node: at the lowest directory level its children
// are leaves, above it directories.
type dir struct {
	sub  [fan]*dir
	leaf [fan]*leaf
}

// nodes are the tree nodes one snapshot build may take, allocated in
// one slice per kind up front.
type nodes struct {
	leaves []leaf
	dirs   []dir
}

func newSnapshot(name string, pages int, vcpu VCPU) *Snapshot {
	depth := 1
	for cover := fan * fan; cover < pages; cover *= fan {
		depth++
	}
	return &Snapshot{Name: name, Pages: pages, VCPU: vcpu, depth: depth}
}

// newNodes sizes the node pools for a build touching the PFNs whose
// runs(shift) counts the distinct values of pfn>>shift (an upper bound
// is fine): one leaf per distinct pfn>>fanBits, one directory per
// distinct prefix at each level below the root.
func (s *Snapshot) newNodes(runs func(shift uint) int) nodes {
	dirs := 0
	for l := 2; l <= s.depth; l++ {
		dirs += runs(uint(l * fanBits))
	}
	return nodes{leaves: make([]leaf, runs(fanBits)), dirs: make([]dir, dirs)}
}

// leafFor returns the leaf holding pfn, owned by s alone: a node on the
// path still shared with base — or, for a fresh build (base nil), not
// yet present — is replaced by a copy taken from pool.
func (s *Snapshot) leafFor(base *Snapshot, pfn uint64, pool *nodes) *leaf {
	d := &s.root
	var bd *dir
	if base != nil {
		bd = &base.root
	}
	for l := s.depth; l > 1; l-- {
		i := (pfn >> uint(l*fanBits)) & fanMask
		var shared *dir
		if bd != nil {
			shared = bd.sub[i]
		}
		if d.sub[i] == shared {
			n := &pool.dirs[0]
			pool.dirs = pool.dirs[1:]
			if shared != nil {
				*n = *shared
			}
			d.sub[i] = n
		}
		d, bd = d.sub[i], shared
	}
	i := (pfn >> fanBits) & fanMask
	var shared *leaf
	if bd != nil {
		shared = bd.leaf[i]
	}
	if d.leaf[i] == shared {
		n := &pool.leaves[0]
		pool.leaves = pool.leaves[1:]
		if shared != nil {
			*n = *shared
		}
		d.leaf[i] = n
	}
	return d.leaf[i]
}

// page returns the page holding pfn, which must be below s.Pages.
func (s *Snapshot) page(pfn uint64) *page {
	d := &s.root
	for l := s.depth; l > 1; l-- {
		d = d.sub[(pfn>>uint(l*fanBits))&fanMask]
	}
	return d.leaf[(pfn>>fanBits)&fanMask][pfn&fanMask]
}

// DumpMemory captures a full snapshot of the domain.
func (d *Domain) DumpMemory() (*Snapshot, error) {
	if d.state == StateDestroyed {
		return nil, fmt.Errorf("dump domain %d: %w", d.id, ErrBadState)
	}
	if err := d.hv.faults.Check(FaultDump); err != nil {
		return nil, fmt.Errorf("dump domain %d: %w", d.id, err)
	}
	image := make([]byte, d.MemBytes())
	err := d.hv.machine.EachFrame(len(d.physmap), func(i int) mem.MFN { return d.physmap[i] },
		func(i int, frame []byte) { copy(image[i*mem.PageSize:], frame) })
	if err != nil {
		return nil, fmt.Errorf("dump domain %d: %w", d.id, err)
	}
	return fromImage(d.name, d.vcpu, image), nil
}

// AliasMemory is DumpMemory without the copy: the snapshot's pages are
// the domain's current pages themselves — the shared zero page for a
// never-written frame — so it costs only its page table. Expose marks
// the frames, so a write copies each page the snapshot holds before it
// lands, a share or an exchange drops it instead of reusing it, and
// DestroyDomain leaves it to the snapshot instead of clearing it for the
// next domain. A checkpoint backup, whose frames only commits change,
// pays no copy for it.
func (d *Domain) AliasMemory() (*Snapshot, error) {
	if d.state == StateDestroyed {
		return nil, fmt.Errorf("dump domain %d: %w", d.id, ErrBadState)
	}
	if err := d.hv.faults.Check(FaultDump); err != nil {
		return nil, fmt.Errorf("dump domain %d: %w", d.id, err)
	}
	n := len(d.physmap)
	s := newSnapshot(d.name, n, d.vcpu)
	pool := s.newNodes(func(shift uint) int { return (n + 1<<shift - 1) >> shift })
	err := d.hv.machine.Expose(n, func(i int) mem.MFN { return d.physmap[i] },
		func(i int, frame []byte) { s.leafFor(nil, uint64(i), &pool)[i&fanMask] = (*page)(frame) })
	if err != nil {
		return nil, fmt.Errorf("dump domain %d: %w", d.id, err)
	}
	return s, nil
}

// DumpDirty captures a snapshot of the domain that shares every page of
// base except pfns, which it copies from the domain. It equals a full
// DumpMemory exactly when the domain differs from base in no page
// outside pfns — the caller's dirty log vouches for that, as it does
// for every checkpoint commit. base must have been taken from a domain
// of the same size; pfns may come in any order.
func (d *Domain) DumpDirty(base *Snapshot, pfns []mem.PFN) (*Snapshot, error) {
	s, pool, err := d.derive(base, pfns)
	if err != nil {
		return nil, err
	}
	slab := make([]page, len(pfns))
	err = d.hv.machine.EachFrame(len(pfns), func(i int) mem.MFN { return d.physmap[pfns[i]] },
		func(i int, frame []byte) {
			copy(slab[i][:], frame)
			s.leafFor(base, uint64(pfns[i]), &pool)[pfns[i]&fanMask] = &slab[i]
		})
	if err != nil {
		return nil, fmt.Errorf("dump domain %d: %w", d.id, err)
	}
	return s, nil
}

// AliasDirty is DumpDirty without the copy: the snapshot takes the
// domain's current pages for pfns themselves, as AliasMemory does, and
// shares the rest with base, so deriving it costs only the page-table
// nodes on the paths to pfns.
func (d *Domain) AliasDirty(base *Snapshot, pfns []mem.PFN) (*Snapshot, error) {
	s, pool, err := d.derive(base, pfns)
	if err != nil {
		return nil, err
	}
	err = d.hv.machine.Expose(len(pfns), func(i int) mem.MFN { return d.physmap[pfns[i]] },
		func(i int, frame []byte) { s.leafFor(base, uint64(pfns[i]), &pool)[pfns[i]&fanMask] = (*page)(frame) })
	if err != nil {
		return nil, fmt.Errorf("dump domain %d: %w", d.id, err)
	}
	return s, nil
}

// derive checks a derivation of base over pfns and returns the new
// snapshot, sharing base's whole table so far, with the node pools the
// paths to pfns take.
func (d *Domain) derive(base *Snapshot, pfns []mem.PFN) (*Snapshot, nodes, error) {
	if d.state == StateDestroyed {
		return nil, nodes{}, fmt.Errorf("dump domain %d: %w", d.id, ErrBadState)
	}
	if base.Pages != len(d.physmap) {
		return nil, nodes{}, fmt.Errorf("dump domain %d: base has %d pages, domain has %d",
			d.id, base.Pages, len(d.physmap))
	}
	for _, pfn := range pfns {
		if uint64(pfn) >= uint64(len(d.physmap)) {
			return nil, nodes{}, fmt.Errorf("dump domain %d pfn %d: %w", d.id, pfn, ErrBadAddress)
		}
	}
	if err := d.hv.faults.Check(FaultDump); err != nil {
		return nil, nodes{}, fmt.Errorf("dump domain %d: %w", d.id, err)
	}
	s := newSnapshot(d.name, base.Pages, d.vcpu)
	s.root = base.root
	pool := s.newNodes(func(shift uint) int {
		runs := 0
		for i, pfn := range pfns {
			if i == 0 || pfn>>shift != pfns[i-1]>>shift {
				runs++
			}
		}
		return runs
	})
	return s, pool, nil
}

// RestoreMemory gives the domain the pages pfns of a snapshot and loads
// its vCPU state; every other page keeps its contents. No byte moves: the
// frames hold the snapshot's pages by reference (mem.Machine.Install), a
// zero page as no page at all, and each copies its page before the
// domain's next write to it, so the snapshot stays as it was. Restoring
// the pages the domain's dirty log names from the image of the last
// commit rolls the domain back to that commit. The snapshot must match
// the domain's size; pfns may come in any order.
func (d *Domain) RestoreMemory(s *Snapshot, pfns []mem.PFN) error {
	if s.Pages != len(d.physmap) {
		return fmt.Errorf("restore domain %d: snapshot has %d pages, domain has %d",
			d.id, s.Pages, len(d.physmap))
	}
	for _, pfn := range pfns {
		if uint64(pfn) >= uint64(len(d.physmap)) {
			return fmt.Errorf("restore domain %d pfn %d: %w", d.id, pfn, ErrBadAddress)
		}
	}
	if err := d.hv.faults.Check(FaultRestore); err != nil {
		return fmt.Errorf("restore domain %d: %w", d.id, err)
	}
	err := d.hv.machine.Install(len(pfns), func(i int) mem.MFN { return d.physmap[pfns[i]] },
		func(i int) *page { return s.page(uint64(pfns[i])) })
	if err != nil {
		return fmt.Errorf("restore domain %d: %w", d.id, err)
	}
	d.vcpu = s.VCPU
	return nil
}

// SnapshotFromImage builds a snapshot over a contiguous memory image of
// whole pages, such as one read back from disk. The snapshot's pages
// alias image, which the caller must not modify afterwards.
func SnapshotFromImage(name string, vcpu VCPU, image []byte) (*Snapshot, error) {
	if len(image)%mem.PageSize != 0 {
		return nil, fmt.Errorf("snapshot image of %d bytes is not whole pages: %w", len(image), ErrBadAddress)
	}
	return fromImage(name, vcpu, image), nil
}

func fromImage(name string, vcpu VCPU, image []byte) *Snapshot {
	n := len(image) / mem.PageSize
	s := newSnapshot(name, n, vcpu)
	pool := s.newNodes(func(shift uint) int { return (n + 1<<shift - 1) >> shift })
	for i := 0; i < n; i++ {
		s.leafFor(nil, uint64(i), &pool)[i&fanMask] = (*page)(image[i*mem.PageSize:])
	}
	return s
}

// ReadPage returns one guest page of a snapshot. The slice aliases the
// snapshot's (possibly shared) page and must not be modified.
func (s *Snapshot) ReadPage(pfn mem.PFN) ([]byte, error) {
	if uint64(pfn) >= uint64(s.Pages) {
		return nil, fmt.Errorf("snapshot page %d of %d: %w", pfn, s.Pages, ErrBadAddress)
	}
	return s.page(uint64(pfn))[:], nil
}

// ReadPhys copies guest-physical bytes starting at paddr into buf.
func (s *Snapshot) ReadPhys(paddr uint64, buf []byte) error {
	end := paddr + uint64(len(buf))
	if end > s.MemBytes() || end < paddr {
		return fmt.Errorf("snapshot read [%#x,%#x) of %d bytes: %w", paddr, end, s.MemBytes(), ErrBadAddress)
	}
	for len(buf) > 0 {
		n := copy(buf, s.page(paddr >> mem.PageShift)[paddr&(mem.PageSize-1):])
		buf, paddr = buf[n:], paddr+uint64(n)
	}
	return nil
}

// MemBytes returns the image's size in bytes.
func (s *Snapshot) MemBytes() uint64 { return uint64(s.Pages) * mem.PageSize }

// Bytes materialises the image as one contiguous slice, a fresh copy.
func (s *Snapshot) Bytes() []byte {
	out := make([]byte, s.MemBytes())
	_ = s.ReadPhys(0, out) // in range by construction
	return out
}

// Exchange makes guest page pfns[i] hold pages[i], which the caller took
// from the domain's spares (Spares) and filled, without moving a byte
// (mem.Machine.Exchange). The page a frame held goes back to the spares
// unless a snapshot or another domain holds it (AliasMemory, ShareTo). It
// is all-or-nothing: pfns must be strictly ascending and in range, or
// nothing is swapped and the pages stay the caller's. Every mapping of
// the domain sees the swap. It fails with ErrBadState on a destroyed
// domain. The remus restore side publishes a batch with it.
func (d *Domain) Exchange(pfns []mem.PFN, pages []*mem.Page) error {
	if d.state == StateDestroyed {
		return fmt.Errorf("exchange frames of destroyed domain %d: %w", d.id, ErrBadState)
	}
	if err := d.hv.machine.Exchange(&d.spares, d.physmap, pfns, pages); err != nil {
		return fmt.Errorf("domain %d: %w", d.id, err)
	}
	return nil
}

// Spares returns the domain's spare pages (mem.Spares), for its single
// writer only: the goroutine that writes, commits or restores into it.
func (d *Domain) Spares() *mem.Spares { return &d.spares }

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
