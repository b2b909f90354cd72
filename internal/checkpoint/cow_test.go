package checkpoint

import (
	"bytes"
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/hv"
	"repro/internal/mem"
)

func newCoWCheckpointer(t *testing.T) (*hv.Hypervisor, *hv.Domain, *Checkpointer) {
	t.Helper()
	h := hv.New(4*domPages + 8)
	d, err := h.CreateDomain("vm", domPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := newCkpt(h, d, cost.Full, 2)
	if err != nil {
		t.Fatalf("NewWithParams: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.EnableCoW(); err != nil {
		t.Fatalf("EnableCoW: %v", err)
	}
	return h, d, c
}

func fillPage(t *testing.T, d *hv.Domain, pfn mem.PFN, b byte) {
	t.Helper()
	page := bytes.Repeat([]byte{b}, mem.PageSize)
	if err := d.WritePhys(uint64(pfn)*mem.PageSize, page); err != nil {
		t.Fatalf("WritePhys pfn %d: %v", pfn, err)
	}
}

func checkPage(t *testing.T, d *hv.Domain, pfn mem.PFN, want byte, what string) {
	t.Helper()
	got := make([]byte, mem.PageSize)
	if err := d.ReadPhys(uint64(pfn)*mem.PageSize, got); err != nil {
		t.Fatalf("ReadPhys pfn %d: %v", pfn, err)
	}
	for i, b := range got {
		if b != want {
			t.Fatalf("%s: pfn %d byte %d = %#x, want %#x", what, pfn, i, b, want)
		}
	}
}

// The CoW commit must deliver the exact paused-instant snapshot: pages
// overwritten by the guest right after resume reach the backup with
// their at-commit contents (copied eagerly by the write fault), and
// pages the guest leaves alone converge lazily.
func TestCoWCommitConvergesToPausedInstant(t *testing.T) {
	_, d, c := newCoWCheckpointer(t)
	pfns := []mem.PFN{1, 2, 3, 4}
	for _, pfn := range pfns {
		fillPage(t, d, pfn, 0xAA)
	}
	counts, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if counts.DirtyPages == 0 {
		t.Fatal("commit saw no dirty pages")
	}

	// The guest rewrites half the committed set immediately — those
	// writes fault and must not reach the backup.
	fillPage(t, d, 1, 0xBB)
	fillPage(t, d, 2, 0xBB)
	if d.WriteFaults() == 0 {
		t.Fatal("post-resume writes to armed pages took no write faults")
	}

	if err := c.Quiesce(); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	for _, pfn := range pfns {
		checkPage(t, c.Backup(), pfn, 0xAA, "backup after quiesce")
	}
	checkPage(t, d, 1, 0xBB, "primary keeps the new write")
	if d.WatchCount() != 0 {
		t.Fatalf("WatchCount = %d after quiesce, want 0 (traps drained)", d.WatchCount())
	}
	st := c.CoWStats()
	if st.Commits != 1 || st.ArmedPages == 0 {
		t.Fatalf("CoWStats = %+v, want 1 commit with armed pages", st)
	}
}

// A lazy-copy failure cancels the commit's convergence: the backup
// reverts to the previous epoch's snapshot and the parked error
// surfaces at the next quiesce.
func TestCoWCopyFailureRevertsBackup(t *testing.T) {
	h, d, c := newCoWCheckpointer(t)
	inj := fault.NewInjector()
	h.InjectFaults(inj)
	pfns := []mem.PFN{1, 2, 3}
	for _, pfn := range pfns {
		fillPage(t, d, pfn, 0xAA)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint 1: %v", err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatalf("Quiesce 1: %v", err)
	}

	for _, pfn := range pfns {
		fillPage(t, d, pfn, 0xBB)
	}
	// The very first lazy copy of the next commit fails, whichever of
	// the copier, a write fault, or the quiesce drain claims it.
	inj.FailNext(FaultCopyPage, 1, false)
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint 2: %v", err)
	}
	if err := c.Quiesce(); err == nil {
		t.Fatal("Quiesce swallowed the injected copy failure")
	}
	// The backup dropped back to the previous epoch's snapshot.
	for _, pfn := range pfns {
		checkPage(t, c.Backup(), pfn, 0xAA, "backup after failed convergence")
	}
	// The error was surfaced once, then cleared: the pipeline is usable
	// again and the next commit converges.
	if err := c.Quiesce(); err != nil {
		t.Fatalf("error not cleared after surfacing: %v", err)
	}
	for _, pfn := range pfns {
		fillPage(t, d, pfn, 0xCC)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint 3: %v", err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatalf("Quiesce 3: %v", err)
	}
	for _, pfn := range pfns {
		checkPage(t, c.Backup(), pfn, 0xCC, "backup after recovered commit")
	}
}

// Rollback must drain the in-flight lazy copies before restoring the
// primary from the backup, so the primary lands on the settled
// paused-instant snapshot with no write traps left behind.
func TestCoWRollbackRestoresPausedInstant(t *testing.T) {
	_, d, c := newCoWCheckpointer(t)
	pfns := []mem.PFN{1, 2, 3, 4}
	for _, pfn := range pfns {
		fillPage(t, d, pfn, 0xAA)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Dirty the primary after resume, then roll back mid-convergence.
	fillPage(t, d, 2, 0xBB)
	fillPage(t, d, 4, 0xBB)
	if err := c.Rollback(); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	for _, pfn := range pfns {
		checkPage(t, d, pfn, 0xAA, "primary after rollback")
	}
	if d.WatchCount() != 0 {
		t.Fatalf("WatchCount = %d after rollback, want 0", d.WatchCount())
	}
}

// readCommitted reads one page of the committed image.
func readCommitted(t *testing.T, c *Checkpointer, pfn mem.PFN) []byte {
	t.Helper()
	got := make([]byte, mem.PageSize)
	if err := c.ReadCommitted(pfn, got); err != nil {
		t.Fatalf("ReadCommitted pfn %d: %v", pfn, err)
	}
	return got
}

// ReadCommitted serves the image Rollback would restore while the CoW
// commit is still converging: a page the copier has not settled yet is
// read from the primary, whose write trap keeps it at the committed
// bytes; once a guest write faults it into the backup, from the backup.
func TestReadCommittedPendingPageFromPrimary(t *testing.T) {
	_, d, c := newCoWCheckpointer(t)
	// Retire the copier so a committed page stays pending until the
	// guest faults on it. Close closes stop again, so it gets a fresh one.
	close(c.cow.stop)
	<-c.cow.done
	c.cow.stop = make(chan struct{})
	pending := func(pfn mem.PFN) bool {
		c.cow.mu.Lock()
		defer c.cow.mu.Unlock()
		_, ok := c.cow.pending[pfn]
		return ok
	}

	const pfn = 5
	fillPage(t, d, pfn, 0xAA)
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if !pending(pfn) {
		t.Fatal("committed page is not pending with the copier stopped")
	}
	checkPage(t, c.Backup(), pfn, 0x00, "backup before the lazy copy")
	if got := readCommitted(t, c, pfn); !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, mem.PageSize)) {
		t.Fatal("pending page not read from the primary's committed bytes")
	}

	fillPage(t, d, pfn, 0xBB)
	if pending(pfn) {
		t.Fatal("guest write did not settle the pending page")
	}
	if got := readCommitted(t, c, pfn); !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, mem.PageSize)) {
		t.Fatal("settled page not read from the backup's committed bytes")
	}
}

// With the copier live, every committed page reads back at its
// at-commit bytes however the copier and the guest's faults interleave
// with the reads.
func TestReadCommittedAlongsideCopier(t *testing.T) {
	_, d, c := newCoWCheckpointer(t)
	for round := 1; round <= 3; round++ {
		for pfn := mem.PFN(0); pfn < domPages; pfn++ {
			fillPage(t, d, pfn, byte(round))
		}
		if _, err := c.Checkpoint(); err != nil {
			t.Fatalf("round %d Checkpoint: %v", round, err)
		}
		want := bytes.Repeat([]byte{byte(round)}, mem.PageSize)
		for pfn := mem.PFN(0); pfn < domPages; pfn++ {
			if pfn%4 == 0 {
				fillPage(t, d, pfn, 0xFF) // faults the page into the backup
			}
			if got := readCommitted(t, c, pfn); !bytes.Equal(got, want) {
				t.Fatalf("round %d pfn %d: committed image differs from the at-commit bytes", round, pfn)
			}
		}
	}
}
