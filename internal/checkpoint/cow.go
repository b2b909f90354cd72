// Copy-on-write accounting.
//
// Every commit shares the dirty pages with the backup and leaves each
// copy to the guest's next write of the page (mem.Machine.Write), so the
// guest resumes after a commit's pointer moves whichever strategy prices
// it. What EnableCoW changes is the pricing: the cost model prices the
// paper's copy under pause for the eager commit and, under CoW, a
// write-protect of the dirty set, a fault per page the guest writes
// again, and the lazy copy of the rest. The counts that pricing reads
// come from the hypervisor's single-shot write traps, armed here on each
// commit's dirty set and dropped at the next commit.
//
// Determinism invariant: only a guest write (single-shot) or the batched
// disarm consumes a trap, so the armed-page count and the write-fault
// count are pure functions of guest behavior, which is what lets the
// cost model price CoW reproducibly.
package checkpoint

import (
	"errors"

	"repro/internal/mem"
)

// cowState is the copy-on-write accounting EnableCoW installs.
type cowState struct {
	armed []mem.PFN // the last commit's set while its traps stand, ascending

	// Cumulative deterministic accounting.
	commits    int
	armedPages int
}

// EnableCoW switches the checkpointer to copy-on-write accounting. It
// must be called after construction (the initial synchronization is not
// counted) and requires the premapped frame tables, whose commit the CoW
// pricing models (optimization Premap or Full).
func (c *Checkpointer) EnableCoW() error {
	if c.closed {
		return ErrClosed
	}
	if c.cow != nil {
		return errors.New("checkpoint: CoW already enabled")
	}
	if c.gmPrimary == nil {
		return errors.New("checkpoint: CoW requires premapped frames (optimization Premap or Full)")
	}
	c.cow = &cowState{}
	return nil
}

// CoWStats are cumulative copy-on-write commit statistics. Write-fault
// counts live on the primary domain (hv.Domain.WriteFaults).
type CoWStats struct {
	Commits    int // commits that went through the CoW path
	ArmedPages int // cumulative pages write-protected at commit
}

// CoWStats returns the cumulative CoW commit statistics.
func (c *Checkpointer) CoWStats() CoWStats {
	if c.cow == nil {
		return CoWStats{}
	}
	return CoWStats{Commits: c.cow.commits, ArmedPages: c.cow.armedPages}
}

// Quiesce returns nil: a commit is the backup's when it returns, so there
// is nothing left to settle. It stays for callers that time it as a span.
func (c *Checkpointer) Quiesce() error { return nil }

// armCoW counts a published set and write-protects it, one batched
// hypercall; a no-op for the eager commit.
func (c *Checkpointer) armCoW(dirty []mem.PFN) {
	cw := c.cow
	if cw == nil {
		return
	}
	cw.commits++
	cw.armedPages += len(dirty)
	if c.primary.ArmWriteFaults(dirty) == nil {
		cw.armed = append(cw.armed[:0], dirty...)
	}
}

// disarmCoW drops the traps still armed from the last commit — armed
// minus faulted — in one batched reconfiguration. It runs where the
// priced lazy copy would have to be complete: at the next commit, at
// Committed (history, forensics, rollback) and at Close.
func (c *Checkpointer) disarmCoW() {
	if cw := c.cow; cw != nil && len(cw.armed) > 0 {
		c.primary.DisarmWriteFaults(cw.armed)
		cw.armed = cw.armed[:0]
	}
}
