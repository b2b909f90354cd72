// Copy-on-write checkpointing with speculative resume.
//
// The eager commit copies every dirty page while the guest is frozen, so
// the pause window is O(dirty bytes). The CoW commit captures only the
// dirty PFN list under pause, arms write protection on those pages via
// the hypervisor's memory-event machinery (one batched hypercall plus a
// per-page permission flip), and resumes the guest immediately. A
// background copier then copies each page once, into its staging page;
// a guest write faulting on a not-yet-staged page stages it first, so
// every staging page receives the paused-instant bytes however the race
// between the guest and the copier plays out. The set is published at
// the next commit boundary (or Quiesce) by the same frame exchange that
// ends an eager commit; until then the backup still holds the previous
// commit, untouched.
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
	"slices"
	"sync"

	"repro/internal/mem"
)

// ErrConvergence marks a lost publication: a copy-on-write commit whose
// set could not be staged (or exchanged) after the guest resumed. The
// backup, memory and disk, still holds the commit before it, but that
// commit's outputs may already have left, so rolling back to it would
// contradict them.
var ErrConvergence = errors.New("checkpoint: cow convergence")

// cowState is the copy-on-write commit: the memStage EnableCoW installs
// in place of exchangeStage, whose staging pool, per-page copy and
// exchange it reuses. stage records the set, apply arms it, settle
// publishes it. Every copy — claimed by the background copier, by a
// write-fault handler, or by settle's drain — happens under mu, so a
// page is staged exactly once and never torn.
type cowState struct {
	ex *exchangeStage

	mu      sync.Mutex
	order   []mem.PFN       // the unpublished set, ascending; order[i] stages into ex.pool[i]
	pending map[mem.PFN]int // pages not yet staged -> index into order
	next    int             // background copier's cursor into order
	armed   bool            // write faults are armed for the current order
	err     error           // first staging failure: the set will not be published

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
	ex, ok := c.mem.(*exchangeStage)
	if !ok {
		return errors.New("checkpoint: CoW requires premapped frames (optimization Premap or Full)")
	}
	cw := &cowState{
		ex:      ex,
		pending: make(map[mem.PFN]int),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	c.cow, c.mem = cw, cw
	c.primary.SetWriteFaultHandler(cw.handleFault)
	go pprof.Do(context.Background(), pprof.Labels("vm", c.primary.Name(), "role", "cow-copier"),
		func(context.Context) { cw.copier() })
	return nil
}

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

// Quiesce publishes the last copy-on-write commit: every still-pending
// page is staged inline, the remaining write traps are dropped in one
// batched reconfiguration, and the set is exchanged into the backup. A
// lost publication is reported once, wrapped in ErrConvergence. A caller
// that reads the backup domain itself as a snapshot must quiesce first;
// Committed, the image of the last commit, publishes by itself. A no-op
// for the eager commit.
func (c *Checkpointer) Quiesce() error { return c.mem.settle() }

// stage records the commit's dirty set and sizes the staging pool. It
// runs with the primary paused and the previous set published.
func (cw *cowState) stage(dirty []mem.PFN) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	cw.ex.grow(len(dirty))
	cw.order = append(cw.order[:0], dirty...)
	for i, pfn := range cw.order {
		cw.pending[pfn] = i
	}
	cw.next = 0
	return nil
}

// apply write-protects the recorded set and kicks the copier. If arming
// fails, no protection landed: the set is published inline, so the
// commit completes eagerly instead of lazily.
func (cw *cowState) apply(dirty []mem.PFN) error {
	cw.mu.Lock()
	cw.commits++
	cw.armedPages += len(dirty)
	cw.mu.Unlock()
	if len(dirty) == 0 {
		return nil
	}
	if err := cw.ex.c.primary.ArmWriteFaults(dirty); err != nil {
		return cw.publish()
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

// revert drops a recorded set that was never armed (the overlapped disk
// copy failed).
func (cw *cowState) revert([]mem.PFN) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	cw.order = cw.order[:0]
	clear(cw.pending)
}

// settle publishes the last commit's set. On a lost publication the
// backup's memory was never touched; its disk blocks, copied eagerly by
// that commit, are reverted to match. The commit's disk list and undo
// are still in place: settle runs before the next commit harvests.
func (cw *cowState) settle() error {
	if err := cw.publish(); err != nil {
		c := cw.ex.c
		c.applyDiskUndo(c.diskScratch)
		return fmt.Errorf("%w: %w", ErrConvergence, err)
	}
	return nil
}

// publish stages every still-pending page inline, drops the remaining
// write traps in one batched reconfiguration — the deterministic set:
// armed minus faulted, whatever the copier got to — and, if every page
// was staged, exchanges the set into the backup. The set is retired
// either way; the first failure is returned.
func (cw *cowState) publish() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	for idx := 0; idx < len(cw.order) && len(cw.pending) > 0; idx++ {
		if _, ok := cw.pending[cw.order[idx]]; ok {
			cw.stageLocked(idx)
		}
	}
	if cw.armed {
		cw.ex.c.primary.DisarmWriteFaults(cw.order)
		cw.armed = false
	}
	err := cw.err
	if err == nil && len(cw.order) > 0 {
		err = cw.ex.apply(cw.order)
	}
	cw.order, cw.err = cw.order[:0], nil
	return err
}

// stageLocked stages the pending page order[idx] under mu. The primary
// still holds its paused-instant bytes: the page is pending, so any
// guest write would have faulted and staged it first. A failure cancels
// the set's publication, so nothing is left to stage; the write traps
// stay armed until publish's batched disarm, firing as cheap spurious
// faults in the meantime.
func (cw *cowState) stageLocked(idx int) {
	if err := cw.ex.stagePage(idx, cw.order[idx]); err != nil {
		cw.err = err
		clear(cw.pending)
		return
	}
	delete(cw.pending, cw.order[idx])
}

// handleFault is the primary domain's write-fault handler: the guest is
// about to write a protected page. If the page is still pending, it is
// staged right now — before the write lands. A page already staged
// needs nothing; the fault was just the (batched-drain) protection
// firing spuriously, priced but harmless.
func (cw *cowState) handleFault(pfn mem.PFN) {
	cw.mu.Lock()
	if idx, ok := cw.pending[pfn]; ok {
		cw.stageLocked(idx)
	}
	cw.mu.Unlock()
}

// copier is the background copier goroutine: after each commit arms a
// set, it walks the order staging pages the guest has not yet faulted
// on. It copies page-at-a-time under the lock, so the fault handler
// interleaves rather than waits out the whole batch.
func (cw *cowState) copier() {
	defer close(cw.done)
	for {
		select {
		case <-cw.stop:
			return
		case <-cw.kick:
		}
		for cw.stageNext() {
		}
	}
}

// stageNext stages the next pending page at the copier's cursor,
// reporting whether there was one.
func (cw *cowState) stageNext() bool {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	for cw.next < len(cw.order) {
		i := cw.next
		cw.next++
		if _, ok := cw.pending[cw.order[i]]; ok {
			cw.stageLocked(i)
			return true
		}
	}
	return false
}

// committedLocked returns the page holding pfn's committed bytes when
// the unpublished set has it: the primary's while the page is pending
// (its write trap keeps it at the committed bytes), its staging page
// once staged. ok is false when the backup holds them.
func (cw *cowState) committedLocked(pfn mem.PFN) ([]byte, bool) {
	if _, pending := cw.pending[pfn]; pending {
		page, err := cw.ex.c.gmPrimary.Page(pfn)
		return page, err == nil
	}
	if cw.err != nil {
		return nil, false
	}
	if i, staged := slices.BinarySearch(cw.order, pfn); staged {
		return cw.ex.pool[i], true
	}
	return nil, false
}
