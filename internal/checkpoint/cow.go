// Copy-on-write checkpointing with speculative resume.
//
// The eager commit paths copy every dirty page into the backup while
// the guest is frozen, so the pause window is O(dirty bytes). The CoW
// path captures only dirty *metadata* under pause — the dirty PFN list
// and the intent to undo — arms write protection on those pages via the
// hypervisor's memory-event machinery (one batched hypercall plus a
// per-page permission flip), and resumes the guest immediately. The
// pages are then copied into the backup lazily by a background copier
// goroutine; a guest write faulting on a not-yet-copied page triggers
// an eager copy-before-write, so the backup always converges to the
// exact paused-instant snapshot regardless of how the race between the
// guest and the copier plays out.
//
// Determinism invariant: the copier never disarms write protection —
// only guest-side fault delivery (single-shot) or the batched drain at
// the next commit boundary does. The armed-page count and the
// write-fault count are therefore pure functions of guest behavior,
// which is what lets the cost model price CoW reproducibly; the racy
// eager/lazy split of who performed each copy is never exposed.
package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"

	"repro/internal/cost"
	"repro/internal/mem"
)

// cowState is the copy-on-write commit machinery of one Checkpointer.
// Every copy — claimed by the background copier, by a write-fault
// handler, or by a draining quiesce — happens atomically under mu:
// claim, lazy undo capture, and backup overwrite are indivisible, so a
// page is copied exactly once and never torn.
type cowState struct {
	mu        sync.Mutex
	order     []mem.PFN       // armed pages of the current commit, in scan order
	pending   map[mem.PFN]int // pages not yet copied -> index into order
	next      int             // background copier's cursor into order
	undo      []byte          // lazily-captured backup undo, indexed like order
	copied    []bool          // per-order-index: copy landed in the backup
	diskDirty []mem.PFN       // the commit's eagerly-copied disk blocks, for failure undo
	armed     bool            // write faults are armed for the current order
	err       error           // first copy failure, surfaced at the next commit

	// Cumulative deterministic accounting.
	commits    int
	armedPages int

	kick chan struct{} // wakes the copier after a commit arms a new set
	stop chan struct{} // closed by Close to retire the copier
	done chan struct{} // closed by the copier on exit
}

// EnableCoW switches the checkpointer to copy-on-write commits. It must
// be called after construction (the initial full synchronization stays
// eager) and requires the premapped frame tables — the fault handler
// and the copier copy pages via the global mappings, never through the
// hypercall access path.
func (c *Checkpointer) EnableCoW() error {
	if c.closed {
		return ErrClosed
	}
	if c.cow != nil {
		return errors.New("checkpoint: CoW already enabled")
	}
	if c.opt < cost.Premap {
		return errors.New("checkpoint: CoW requires premapped frames (optimization Premap or Full)")
	}
	cw := &cowState{
		pending: make(map[mem.PFN]int),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	c.cow = cw
	c.primary.SetWriteFaultHandler(c.handleCoWFault)
	go pprof.Do(context.Background(), pprof.Labels("vm", c.primary.Name(), "role", "cow-copier"),
		func(context.Context) { c.cowCopier() })
	return nil
}

// CoWEnabled reports whether commits use the copy-on-write path.
func (c *Checkpointer) CoWEnabled() bool { return c.cow != nil }

// CoWStats are cumulative copy-on-write commit statistics. Write-fault
// counts live on the primary domain (hv.Domain.WriteFaults), keeping
// the racy copier out of all accounting.
type CoWStats struct {
	Commits    int // commits that went through the CoW path
	ArmedPages int // cumulative pages write-protected at commit
}

// CoWStats returns the cumulative CoW commit statistics.
func (c *Checkpointer) CoWStats() CoWStats {
	if c.cow == nil {
		return CoWStats{}
	}
	c.cow.mu.Lock()
	defer c.cow.mu.Unlock()
	return CoWStats{Commits: c.cow.commits, ArmedPages: c.cow.armedPages}
}

// Quiesce drains the copy-on-write pipeline: every still-pending lazy
// copy is settled inline, the remaining write traps are dropped in one
// batched reconfiguration, and any deferred copy failure is surfaced.
// Callers that read the backup as a snapshot (forensic dumps, history
// retention, rollback) must quiesce first. A no-op when CoW is off.
func (c *Checkpointer) Quiesce() error {
	if c.cow == nil {
		return nil
	}
	return c.quiesceCoW()
}

// armCoW records the commit's dirty metadata, write-protects the pages,
// and kicks the background copier. Runs with the primary paused and the
// previous commit fully quiesced (pending is empty).
func (c *Checkpointer) armCoW(dirty, diskDirty []mem.PFN) error {
	cw := c.cow
	cw.mu.Lock()
	cw.order = append(cw.order[:0], dirty...)
	cw.diskDirty = append(cw.diskDirty[:0], diskDirty...)
	need := len(dirty) * mem.PageSize
	if cap(cw.undo) < need {
		cw.undo = make([]byte, need)
	}
	cw.undo = cw.undo[:need]
	if cap(cw.copied) < len(dirty) {
		cw.copied = make([]bool, len(dirty))
	}
	cw.copied = cw.copied[:len(dirty)]
	for i := range cw.copied {
		cw.copied[i] = false
	}
	for i, pfn := range cw.order {
		cw.pending[pfn] = i
	}
	cw.next = 0
	cw.commits++
	cw.armedPages += len(dirty)
	cw.mu.Unlock()
	if len(dirty) == 0 {
		return nil
	}
	if err := c.primary.ArmWriteFaults(cw.order); err != nil {
		return err
	}
	cw.mu.Lock()
	cw.armed = true
	cw.mu.Unlock()
	select {
	case cw.kick <- struct{}{}:
	default:
	}
	return nil
}

// handleCoWFault is the primary domain's write-fault handler: the guest
// is about to write a protected page. If the page is still pending, it
// is copied into the backup right now — before the write lands — so the
// backup still receives the paused-instant bytes. A page the copier
// already settled needs nothing; the fault was just the (batched-drain)
// protection firing spuriously, priced but harmless.
func (c *Checkpointer) handleCoWFault(pfn mem.PFN) {
	cw := c.cow
	cw.mu.Lock()
	if idx, ok := cw.pending[pfn]; ok && cw.err == nil {
		if err := c.cowCopyLocked(idx); err != nil {
			c.cowFailLocked(err)
		}
	}
	cw.mu.Unlock()
}

// cowCopier is the background copier goroutine: after each commit arms
// a set, it walks the order settling pages the guest has not yet
// faulted on. It copies page-at-a-time under the lock, so the fault
// handler interleaves rather than waits out the whole batch.
func (c *Checkpointer) cowCopier() {
	cw := c.cow
	defer close(cw.done)
	for {
		select {
		case <-cw.stop:
			return
		case <-cw.kick:
		}
		for {
			cw.mu.Lock()
			idx := -1
			if cw.err == nil {
				for cw.next < len(cw.order) {
					i := cw.next
					cw.next++
					if _, ok := cw.pending[cw.order[i]]; ok {
						idx = i
						break
					}
				}
			}
			if idx < 0 {
				cw.mu.Unlock()
				break
			}
			if err := c.cowCopyLocked(idx); err != nil {
				c.cowFailLocked(err)
			}
			cw.mu.Unlock()
		}
	}
}

// cowCopyLocked settles one pending page under cw.mu: captures the
// backup's current content into the lazy undo log, then overwrites it
// with the primary's — which still holds the paused-instant bytes,
// because the page is pending (unwritten since the commit: any guest
// write would have faulted and settled it first). Copies go through the
// premapped frames, not the domain access path, so they fire no events
// and take no faults.
func (c *Checkpointer) cowCopyLocked(idx int) error {
	cw := c.cow
	pfn := cw.order[idx]
	if err := c.hv.Faults().Check(FaultCopyPage); err != nil {
		return fmt.Errorf("checkpoint: cow copy pfn %d: %w", pfn, err)
	}
	src, err := c.gmPrimary.Page(pfn)
	if err != nil {
		return err
	}
	dst, err := c.gmBackup.Page(pfn)
	if err != nil {
		return err
	}
	off := idx * mem.PageSize
	copy(cw.undo[off:off+mem.PageSize], dst)
	copy(dst, src)
	cw.copied[idx] = true
	delete(cw.pending, pfn)
	return nil
}

// cowFailLocked cancels the current commit's lazy convergence after a
// copy failure: every page already copied is reverted from the lazy
// undo log and the eagerly-committed disk blocks are reverted to match,
// so the backup drops back to the previous epoch's consistent snapshot
// (memory and disk together). Remaining pages are dropped from pending
// — their write traps stay armed until the next quiesce's batched
// disarm, firing as cheap spurious faults in the meantime. The error is
// parked for the next commit (or rollback) to surface.
func (c *Checkpointer) cowFailLocked(err error) {
	cw := c.cow
	if cw.err == nil {
		cw.err = err
	}
	for idx, done := range cw.copied {
		if !done {
			continue
		}
		if dst, derr := c.gmBackup.Page(cw.order[idx]); derr == nil {
			off := idx * mem.PageSize
			copy(dst, cw.undo[off:off+mem.PageSize])
		}
		cw.copied[idx] = false
	}
	c.applyDiskUndo(cw.diskDirty)
	for pfn := range cw.pending {
		delete(cw.pending, pfn)
	}
}

// quiesceCoW settles every still-pending page inline, drops the
// remaining write traps in one batched reconfiguration — the
// deterministic set: armed minus faulted, whatever the copier got to —
// and returns any deferred copy failure (clearing it; the failed
// commit's undo has already run).
func (c *Checkpointer) quiesceCoW() error {
	cw := c.cow
	cw.mu.Lock()
	defer cw.mu.Unlock()
	for idx := 0; idx < len(cw.order) && cw.err == nil && len(cw.pending) > 0; idx++ {
		if _, ok := cw.pending[cw.order[idx]]; !ok {
			continue
		}
		if err := c.cowCopyLocked(idx); err != nil {
			c.cowFailLocked(err)
		}
	}
	if cw.armed {
		c.primary.DisarmWriteFaults(cw.order)
		cw.armed = false
	}
	err := cw.err
	cw.err = nil
	return err
}
