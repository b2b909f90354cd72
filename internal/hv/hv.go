// Package hv implements the simulated hypervisor substrate that CRIMES
// runs on: machine memory, domains (VMs) with PFN-to-MFN physmaps and
// vCPU state, shadow-paging style dirty logging, foreign memory mapping
// (the equivalent of xenforeignmemory_map), and a memory-event ring
// buffer equivalent to Xen's mem_event channels used by LibVMI.
package hv

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/mem"
)

// Fault-injection sites instrumented by this package. Each names one
// hypercall-granularity operation; an armed fault fires before the
// operation mutates any state.
const (
	FaultPause        = "hv.pause"        // Domain.Pause
	FaultSuspend      = "hv.suspend"      // Domain.Suspend
	FaultResume       = "hv.resume"       // Domain.Resume
	FaultHarvestDirty = "hv.harvest"      // Domain.HarvestDirty
	FaultMapPage      = "hv.map"          // per-page MapForeign / MapAll
	FaultDump         = "hv.dump"         // Domain.DumpMemory, DumpDirty, AliasMemory, AliasDirty
	FaultRestore      = "hv.restore"      // Domain.RestoreMemory (every rollback)
	FaultCreateDomain = "hv.createdomain" // Hypervisor.CreateDomain
)

// DomainID identifies a domain on a host.
type DomainID int

// DomainState is a domain's lifecycle state.
type DomainState int

// Domain lifecycle states. Running domains execute guest work; Paused
// domains briefly stop at a checkpoint boundary; Suspended domains have
// additionally quiesced vCPU state for capture.
const (
	StateRunning DomainState = iota + 1
	StatePaused
	StateSuspended
	StateDestroyed
)

// String renders the domain state.
func (s DomainState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateSuspended:
		return "suspended"
	case StateDestroyed:
		return "destroyed"
	default:
		return fmt.Sprintf("DomainState(%d)", int(s))
	}
}

var (
	// ErrNoDomain is returned for lookups of unknown domains.
	ErrNoDomain = errors.New("hv: no such domain")
	// ErrBadState is returned when an operation is invalid for the
	// domain's current state.
	ErrBadState = errors.New("hv: invalid domain state")
	// ErrBadAddress is returned for out-of-range guest-physical accesses.
	ErrBadAddress = errors.New("hv: guest-physical address out of range")
)

// VCPU is the (simplified) architectural state of a domain's virtual CPU.
type VCPU struct {
	RIP    uint64
	RSP    uint64
	RBP    uint64
	RAX    uint64
	RBX    uint64
	RCX    uint64
	RDX    uint64
	RFlags uint64
	CR3    uint64
}

// AccessKind classifies a memory-event watch.
type AccessKind int

// Memory access kinds for event watches (LibVMI's VMI_EVENT_MEMORY).
const (
	AccessRead AccessKind = 1 << iota
	AccessWrite
	AccessExec
)

// accessKinds enumerates the single-bit access kinds, indexing the
// per-kind refcounts in a watchEntry.
var accessKinds = [...]AccessKind{AccessRead, AccessWrite, AccessExec}

// watchEntry is the per-page watch state: independent event-watch
// refcounts per access kind, so co-watching subsystems (honeypot decoys,
// forensic tripwires) never clobber each other, plus a single-shot
// write-fault arm for copy-on-write checkpointing.
type watchEntry struct {
	refs  [len(accessKinds)]int
	fault bool
}

// kinds returns the union of access kinds with live event watches.
func (e *watchEntry) kinds() AccessKind {
	var k AccessKind
	for i, a := range accessKinds {
		if e.refs[i] > 0 {
			k |= a
		}
	}
	return k
}

// empty reports whether the entry holds no watches of any sort.
func (e *watchEntry) empty() bool {
	return !e.fault && e.kinds() == 0
}

// MemEvent is a single entry in a domain's memory-event ring, produced
// when a watched page is accessed.
type MemEvent struct {
	PFN    mem.PFN
	Offset uint64 // offset within the page
	Length int
	Access AccessKind
	VCPU   VCPU   // vCPU state at the time of the access
	Data   []byte // the bytes written, for write events
}

// Hypercalls counts the hypervisor operations a client performed, so
// experiments can price them with a cost model and a commit event can
// attribute them to its epoch. It is one of the four per-epoch counter
// sets (see internal/cost/counters.go): each field's tags name its key
// in the trace event and its metric series.
type Hypercalls struct {
	MapPage     int `json:"map_page,omitempty" series:"crimes_hypercalls_total,op=map_page"`         // per-page foreign map operations
	UnmapPage   int `json:"unmap_page,omitempty" series:"crimes_hypercalls_total,op=unmap_page"`     // per-page unmap operations
	Translate   int `json:"translate,omitempty" series:"crimes_hypercalls_total,op=translate"`       // PFN-to-MFN translation lookups via hypercall
	DirtyRead   int `json:"dirty_read,omitempty" series:"crimes_hypercalls_total,op=dirty_read"`     // dirty-bitmap harvest hypercalls
	EventConfig int `json:"event_config,omitempty" series:"crimes_hypercalls_total,op=event_config"` // memory-event (un)watch configuration calls
}

// Add accumulates another counter set into h.
func (h *Hypercalls) Add(o Hypercalls) {
	h.MapPage += o.MapPage
	h.UnmapPage += o.UnmapPage
	h.Translate += o.Translate
	h.DirtyRead += o.DirtyRead
	h.EventConfig += o.EventConfig
}

// Sub returns h minus o with every counter clamped at zero: a domain
// destroyed mid-epoch (a degraded remote backup) takes its attributed
// calls with it, and an epoch's delta must not go negative for that.
func (h Hypercalls) Sub(o Hypercalls) Hypercalls {
	return Hypercalls{
		MapPage:     max(h.MapPage-o.MapPage, 0),
		UnmapPage:   max(h.UnmapPage-o.UnmapPage, 0),
		Translate:   max(h.Translate-o.Translate, 0),
		DirtyRead:   max(h.DirtyRead-o.DirtyRead, 0),
		EventConfig: max(h.EventConfig-o.EventConfig, 0),
	}
}

// Total sums the counters.
func (h Hypercalls) Total() int {
	return h.MapPage + h.UnmapPage + h.Translate + h.DirtyRead + h.EventConfig
}

// Hypervisor owns machine memory and the domains running on a host. It
// is safe for concurrent use by fleet workers driving different
// domains: the domain table, the frame allocator, and the hypercall
// counters are internally synchronized. (Individual domains are still
// single-owner: one controller drives one domain at a time.)
type Hypervisor struct {
	machine *mem.Machine
	faults  *fault.Injector

	mu      sync.Mutex // guards domains and nextID
	domains map[DomainID]*Domain
	nextID  DomainID

	callsMu sync.Mutex // guards calls and every domain's calls
	calls   Hypercalls
}

// New creates a hypervisor managing the given number of machine frames.
func New(machineFrames int) *Hypervisor {
	return &Hypervisor{
		machine: mem.NewMachine(machineFrames),
		domains: make(map[DomainID]*Domain),
		nextID:  1,
	}
}

// Machine exposes the underlying machine memory pool.
func (h *Hypervisor) Machine() *mem.Machine { return h.machine }

// Calls returns the accumulated host-wide hypercall counters (every
// domain's operations folded together).
func (h *Hypervisor) Calls() Hypercalls {
	h.callsMu.Lock()
	defer h.callsMu.Unlock()
	return h.calls
}

// ResetCalls zeroes the host-wide hypercall counters. Per-domain
// counters (Domain.Calls) are unaffected; reset those with
// Domain.ResetCalls.
func (h *Hypervisor) ResetCalls() {
	h.callsMu.Lock()
	h.calls = Hypercalls{}
	h.callsMu.Unlock()
}

// countCalls applies f to the host-wide counters and, when d is
// non-nil, to d's per-domain counters under one lock, so parallel fleet
// workers never race on the counters or cross-charge each other's VMs.
func (h *Hypervisor) countCalls(d *Domain, f func(*Hypercalls)) {
	h.callsMu.Lock()
	f(&h.calls)
	if d != nil {
		f(&d.calls)
	}
	h.callsMu.Unlock()
}

// InjectFaults arms a fault injector on the hypervisor. Instrumented
// operations (and clients that obtain the injector via Faults) consult
// it before executing. Passing nil disables injection.
func (h *Hypervisor) InjectFaults(in *fault.Injector) { h.faults = in }

// Faults returns the armed fault injector, or nil. A nil injector is
// safe to use: its Check method always succeeds.
func (h *Hypervisor) Faults() *fault.Injector { return h.faults }

// DomainCount reports the number of live domains on the host.
func (h *Hypervisor) DomainCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.domains)
}

// CreateDomain allocates a domain with the given guest-physical memory
// size in pages.
func (h *Hypervisor) CreateDomain(name string, pages int) (*Domain, error) {
	if err := h.faults.Check(FaultCreateDomain); err != nil {
		return nil, fmt.Errorf("create domain %q: %w", name, err)
	}
	mfns, err := h.machine.AllocN(pages)
	if err != nil {
		return nil, fmt.Errorf("create domain %q: %w", name, err)
	}
	d := &Domain{
		hv:      h,
		name:    name,
		physmap: mfns,
		state:   StateRunning,
		dirty:   mem.NewBitmap(pages),
		watches: make(map[mem.PFN]watchEntry),
	}
	h.mu.Lock()
	d.id = h.nextID
	h.nextID++
	h.domains[d.id] = d
	h.mu.Unlock()
	return d, nil
}

// Domain looks up a domain by ID.
func (h *Hypervisor) Domain(id DomainID) (*Domain, error) {
	h.mu.Lock()
	d, ok := h.domains[id]
	h.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("domain %d: %w", id, ErrNoDomain)
	}
	return d, nil
}

// DestroyDomain releases a domain and its machine frames. A page a
// snapshot aliases (AliasMemory, AliasDirty) stays the snapshot's: its
// frame is detached from it, never cleared for the next domain.
func (h *Hypervisor) DestroyDomain(id DomainID) error {
	h.mu.Lock()
	d, ok := h.domains[id]
	if ok {
		delete(h.domains, id)
	}
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("destroy domain %d: %w", id, ErrNoDomain)
	}
	for _, mfn := range d.physmap {
		if mfn != mem.InvalidMFN {
			if err := h.machine.Free(mfn); err != nil {
				return fmt.Errorf("destroy domain %d: %w", id, err)
			}
		}
	}
	d.state = StateDestroyed
	return nil
}

// Domain is a virtual machine: guest-physical memory mapped onto machine
// frames, a vCPU, a dirty-page log, and memory-event watches.
type Domain struct {
	hv      *Hypervisor
	id      DomainID
	name    string
	physmap []mem.MFN
	vcpu    VCPU
	state   DomainState

	dirtyLogging bool
	dirty        *mem.Bitmap

	// spares gives the domain's frames pages of their own on writes and
	// exchanges, and takes back the backup pages its commits replace
	// (ShareTo) and the pages its exchanges replace (Spares).
	spares mem.Spares

	// watchMu guards watches and writeFaults. watchCount mirrors
	// len(watches) so the access hot path can skip the lock when no
	// watches are armed. ringMu guards the event ring separately so
	// pollers never contend with the fault path.
	watchMu     sync.RWMutex
	watches     map[mem.PFN]watchEntry
	watchCount  atomic.Int32
	writeFaults uint64

	ringMu sync.Mutex
	ring   []MemEvent

	calls Hypercalls // per-domain attribution; guarded by hv.callsMu
}

// ID returns the domain's identifier.
func (d *Domain) ID() DomainID { return d.id }

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }

// Pages returns the domain's guest-physical size in pages.
func (d *Domain) Pages() int { return len(d.physmap) }

// MemBytes returns the domain's guest-physical size in bytes.
func (d *Domain) MemBytes() uint64 { return uint64(len(d.physmap)) * mem.PageSize }

// State returns the domain's lifecycle state.
func (d *Domain) State() DomainState { return d.state }

// VCPU returns a copy of the domain's vCPU state.
func (d *Domain) VCPU() VCPU { return d.vcpu }

// SetVCPU replaces the domain's vCPU state.
func (d *Domain) SetVCPU(v VCPU) { d.vcpu = v }

// Calls returns the hypercall counters attributed to this domain, so a
// fleet can account per-VM costs without cross-charging co-located
// guests. The host-wide aggregate remains available via
// Hypervisor.Calls.
func (d *Domain) Calls() Hypercalls {
	d.hv.callsMu.Lock()
	defer d.hv.callsMu.Unlock()
	return d.calls
}

// ResetCalls zeroes this domain's hypercall counters; the host-wide
// aggregate is unaffected.
func (d *Domain) ResetCalls() {
	d.hv.callsMu.Lock()
	d.calls = Hypercalls{}
	d.hv.callsMu.Unlock()
}

// Pause stops the domain at an instruction boundary.
func (d *Domain) Pause() error {
	if d.state != StateRunning {
		return fmt.Errorf("pause domain %d in state %v: %w", d.id, d.state, ErrBadState)
	}
	if err := d.hv.faults.Check(FaultPause); err != nil {
		return fmt.Errorf("pause domain %d: %w", d.id, err)
	}
	d.state = StatePaused
	return nil
}

// Suspend quiesces a paused domain for state capture.
func (d *Domain) Suspend() error {
	if d.state != StatePaused && d.state != StateRunning {
		return fmt.Errorf("suspend domain %d in state %v: %w", d.id, d.state, ErrBadState)
	}
	if err := d.hv.faults.Check(FaultSuspend); err != nil {
		return fmt.Errorf("suspend domain %d: %w", d.id, err)
	}
	d.state = StateSuspended
	return nil
}

// Resume returns a paused or suspended domain to execution.
func (d *Domain) Resume() error {
	if d.state != StatePaused && d.state != StateSuspended {
		return fmt.Errorf("resume domain %d in state %v: %w", d.id, d.state, ErrBadState)
	}
	if err := d.hv.faults.Check(FaultResume); err != nil {
		return fmt.Errorf("resume domain %d: %w", d.id, err)
	}
	d.state = StateRunning
	return nil
}

// Translate returns the machine frame backing a guest-physical page,
// counting the translation hypercall.
func (d *Domain) Translate(pfn mem.PFN) (mem.MFN, error) {
	if uint64(pfn) >= uint64(len(d.physmap)) {
		return mem.InvalidMFN, fmt.Errorf("translate pfn %d: %w", pfn, ErrBadAddress)
	}
	d.hv.countCalls(d, func(c *Hypercalls) { c.Translate++ })
	return d.physmap[pfn], nil
}

// PhysmapSnapshot returns a copy of the full PFN-to-MFN table. Building
// it counts one translation hypercall per page; CRIMES' Pre-map
// optimization does this once at startup instead of every epoch.
func (d *Domain) PhysmapSnapshot() []mem.MFN {
	d.hv.countCalls(d, func(c *Hypercalls) { c.Translate += len(d.physmap) })
	out := make([]mem.MFN, len(d.physmap))
	copy(out, d.physmap)
	return out
}

// ReadPhys reads guest-physical memory into buf starting at paddr.
func (d *Domain) ReadPhys(paddr uint64, buf []byte) error {
	return d.access(paddr, buf, false)
}

// WritePhys writes data into guest-physical memory at paddr, updating
// the dirty log and firing memory-event watches.
func (d *Domain) WritePhys(paddr uint64, data []byte) error {
	return d.access(paddr, data, true)
}

func (d *Domain) access(paddr uint64, buf []byte, write bool) error {
	if d.state == StateDestroyed {
		return fmt.Errorf("domain %d destroyed: %w", d.id, ErrBadState)
	}
	end := paddr + uint64(len(buf))
	if end > d.MemBytes() || end < paddr {
		return fmt.Errorf("access [%#x,%#x): %w", paddr, end, ErrBadAddress)
	}
	// Hoist the watcher check out of the per-page loop: scans and guest
	// writes dominate the hot path, and almost no domain has memory-event
	// watches armed, so the common case must not pay per-page event
	// bookkeeping.
	watched := d.watchCount.Load() != 0
	m := d.hv.machine
	off := 0
	for off < len(buf) {
		pfn := mem.PFN((paddr + uint64(off)) >> mem.PageShift)
		inPage := int((paddr + uint64(off)) & (mem.PageSize - 1))
		n := mem.PageSize - inPage
		if n > len(buf)-off {
			n = len(buf) - off
		}
		mfn := d.physmap[pfn]
		if write {
			if watched {
				// The write trap fires before the bytes land, EPT-style.
				d.deliverWriteFault(pfn)
			}
			// A frame without a page of its own — never written, or
			// sharing its page with the backup since the last commit —
			// gets one here, before the bytes land.
			if err := m.Write(&d.spares, mfn, inPage, buf[off:off+n]); err != nil {
				return fmt.Errorf("domain %d pfn %d: %w", d.id, pfn, err)
			}
			if d.dirtyLogging {
				d.dirty.Set(int(pfn))
			}
			if watched {
				d.fireEvent(pfn, uint64(inPage), n, AccessWrite, buf[off:off+n])
			}
		} else {
			copy(buf[off:off+n], m.Page(mfn)[inPage:inPage+n])
			if watched {
				d.fireEvent(pfn, uint64(inPage), n, AccessRead, nil)
			}
		}
		off += n
	}
	return nil
}

// EnableDirtyLogging starts shadow-paging dirty tracking.
func (d *Domain) EnableDirtyLogging() {
	d.dirtyLogging = true
	d.dirty.ClearAll()
}

// DisableDirtyLogging stops dirty tracking.
func (d *Domain) DisableDirtyLogging() { d.dirtyLogging = false }

// HarvestDirty copies the dirty log into dst, counting one dirty-read
// hypercall. dst must cover Pages() bits. The log is not cleared: it is
// the set of pages that may differ from the last commit, and only
// CleanDirty, called by a successful commit, takes pages out of it.
func (d *Domain) HarvestDirty(dst *mem.Bitmap) error {
	if err := d.hv.faults.Check(FaultHarvestDirty); err != nil {
		return fmt.Errorf("harvest dirty for domain %d: %w", d.id, err)
	}
	d.hv.countCalls(d, func(c *Hypercalls) { c.DirtyRead++ })
	if err := dst.CopyFrom(d.dirty); err != nil {
		return fmt.Errorf("harvest dirty for domain %d: %w", d.id, err)
	}
	return nil
}

// CleanDirty clears the pages of committed from the dirty log once a
// commit has made them the backup's; pages outside committed stay dirty.
func (d *Domain) CleanDirty(committed *mem.Bitmap) error {
	if err := d.dirty.AndNot(committed); err != nil {
		return fmt.Errorf("clean dirty for domain %d: %w", d.id, err)
	}
	return nil
}

// DirtyPages appends the pages in the dirty log to dst in ascending
// order, counting no hypercall.
func (d *Domain) DirtyPages(dst []mem.PFN) []mem.PFN { return d.dirty.ScanWords(dst) }

// DirtyCount reports the number of pages in the dirty log.
func (d *Domain) DirtyCount() int { return d.dirty.Count() }

// MarkAllDirty marks every page dirty, so the next checkpoint ships the
// whole VM, zero pages included (the No-opt conduit's initial sync).
func (d *Domain) MarkAllDirty() {
	for i := 0; i < d.dirty.Len(); i++ {
		d.dirty.Set(i)
	}
}

// MarkWrittenDirty marks dirty every page whose frame holds a page of its
// own (mem.Machine.Written). The rest read zero, as every page of a
// freshly created domain does, so a first checkpoint into a fresh backup
// need copy only these.
func (d *Domain) MarkWrittenDirty() {
	for pfn, mfn := range d.physmap {
		if d.hv.machine.Written(mfn) {
			d.dirty.Set(pfn)
		}
	}
}

// WatchPage registers a memory-event watch on a guest page. Events for
// matching accesses are appended to the domain's event ring. Watches are
// refcounted per access kind: two subsystems watching the same page and
// kind each hold an independent registration, released one UnwatchPage
// at a time.
func (d *Domain) WatchPage(pfn mem.PFN, access AccessKind) error {
	if uint64(pfn) >= uint64(len(d.physmap)) {
		return fmt.Errorf("watch pfn %d: %w", pfn, ErrBadAddress)
	}
	d.hv.countCalls(d, func(c *Hypercalls) { c.EventConfig++ })
	d.watchMu.Lock()
	e := d.watches[pfn]
	for i, a := range accessKinds {
		if access&a != 0 {
			e.refs[i]++
		}
	}
	d.setWatch(pfn, e)
	d.watchMu.Unlock()
	return nil
}

// UnwatchPage releases one registration of the given access kinds on a
// guest page. Other kinds — and other registrations of the same kind —
// stay armed; the page is forgotten only when every refcount (and any
// write-fault arm) is gone.
func (d *Domain) UnwatchPage(pfn mem.PFN, access AccessKind) {
	d.hv.countCalls(d, func(c *Hypercalls) { c.EventConfig++ })
	d.watchMu.Lock()
	e := d.watches[pfn]
	for i, a := range accessKinds {
		if access&a != 0 && e.refs[i] > 0 {
			e.refs[i]--
		}
	}
	d.setWatch(pfn, e)
	d.watchMu.Unlock()
}

// setWatch stores pfn's entry, forgetting the page once the entry is
// empty and keeping watchCount in step; the caller holds watchMu.
// Entries are values, so arming and disarming pages allocates nothing
// once the table has grown.
func (d *Domain) setWatch(pfn mem.PFN, e watchEntry) {
	_, had := d.watches[pfn]
	switch {
	case !e.empty():
		d.watches[pfn] = e
		if !had {
			d.watchCount.Add(1)
		}
	case had:
		delete(d.watches, pfn)
		d.watchCount.Add(-1)
	}
}

// WatchCount reports how many pages currently carry any watch or
// write-fault arm.
func (d *Domain) WatchCount() int {
	return int(d.watchCount.Load())
}

// ArmWriteFaults write-protects a batch of guest pages for copy-on-write
// checkpointing: the next write to each page takes a write fault (before
// the write lands), which WriteFaults counts, and the arm is consumed.
// The whole batch is one event-configuration hypercall — the point of
// CoW is that protecting N pages is radically cheaper than copying them.
// Arms are all-or-nothing: a bad PFN fails the call before any page is
// protected.
func (d *Domain) ArmWriteFaults(pfns []mem.PFN) error {
	if len(pfns) == 0 {
		return nil
	}
	for _, pfn := range pfns {
		if uint64(pfn) >= uint64(len(d.physmap)) {
			return fmt.Errorf("arm write fault pfn %d: %w", pfn, ErrBadAddress)
		}
	}
	d.hv.countCalls(d, func(c *Hypercalls) { c.EventConfig++ })
	d.watchMu.Lock()
	for _, pfn := range pfns {
		e := d.watches[pfn]
		e.fault = true
		d.setWatch(pfn, e)
	}
	d.watchMu.Unlock()
	return nil
}

// DisarmWriteFaults drops the write-fault arms on a batch of pages (one
// event-configuration hypercall for the whole batch), returning how many
// were still armed. Event watches on the same pages are untouched.
func (d *Domain) DisarmWriteFaults(pfns []mem.PFN) int {
	if len(pfns) == 0 {
		return 0
	}
	d.hv.countCalls(d, func(c *Hypercalls) { c.EventConfig++ })
	cleared := 0
	d.watchMu.Lock()
	for _, pfn := range pfns {
		if e := d.watches[pfn]; e.fault {
			e.fault = false
			d.setWatch(pfn, e)
			cleared++
		}
	}
	d.watchMu.Unlock()
	return cleared
}

// WriteFaults reports the cumulative number of write faults this domain
// has taken on armed pages — the per-domain CoW accounting the cost
// model prices.
func (d *Domain) WriteFaults() uint64 {
	d.watchMu.RLock()
	defer d.watchMu.RUnlock()
	return d.writeFaults
}

// deliverWriteFault consumes a single-shot write-fault arm on pfn, if
// one is set, and counts the fault.
func (d *Domain) deliverWriteFault(pfn mem.PFN) {
	d.watchMu.Lock()
	if e := d.watches[pfn]; e.fault {
		e.fault = false
		d.setWatch(pfn, e)
		d.writeFaults++
	}
	d.watchMu.Unlock()
}

// PollEvents drains and returns the pending memory events.
func (d *Domain) PollEvents() []MemEvent {
	d.ringMu.Lock()
	evs := d.ring
	d.ring = nil
	d.ringMu.Unlock()
	return evs
}

func (d *Domain) fireEvent(pfn mem.PFN, off uint64, n int, access AccessKind, data []byte) {
	d.watchMu.RLock()
	e := d.watches[pfn]
	match := e.kinds()&access != 0
	d.watchMu.RUnlock()
	if !match {
		return
	}
	ev := MemEvent{PFN: pfn, Offset: off, Length: n, Access: access, VCPU: d.vcpu}
	if data != nil {
		ev.Data = append([]byte(nil), data...)
	}
	d.ringMu.Lock()
	d.ring = append(d.ring, ev)
	d.ringMu.Unlock()
}
