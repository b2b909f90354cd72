package checkpoint

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/vdisk"
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

// stopCopier retires the background copier, so a committed page stays
// pending until the guest faults on it or a quiesce drains it. Close
// closes stop again, so it gets a fresh one.
func stopCopier(c *Checkpointer) {
	close(c.cow.stop)
	<-c.cow.done
	c.cow.stop = make(chan struct{})
}

// waitStaged waits until no page of the last CoW commit is pending: the
// copier has staged every one (or a staging failure dropped the rest).
func waitStaged(t *testing.T, c *Checkpointer) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c.cow.mu.Lock()
		n := len(c.cow.pending)
		c.cow.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("copier left %d pages pending", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// A lazy-copy failure loses the commit's publication. Whichever copy
// fails — the first, a middle or the last — and whichever of the copier,
// a write fault or the quiesce drain claims it, the backup's memory and
// disk stay at the previous commit, and the error surfaces once, at the
// next quiesce, as ErrConvergence.
func TestCoWCopyFailureRevertsBackup(t *testing.T) {
	const dirty = 8
	for _, by := range []string{"copier", "fault", "drain"} {
		for _, at := range []struct {
			name string
			n    int
		}{{"first", 1}, {"middle", dirty / 2}, {"last", dirty}} {
			t.Run(by+"/"+at.name, func(t *testing.T) {
				f := newExchangeFixture(t, cost.Full, 2)
				if err := f.c.EnableCoW(); err != nil {
					t.Fatalf("EnableCoW: %v", err)
				}
				if by != "copier" {
					stopCopier(f.c)
				}
				preMem, err := f.c.Backup().DumpMemory()
				if err != nil {
					t.Fatalf("DumpMemory: %v", err)
				}
				preDisk := f.c.BackupDisk().Snapshot()
				f.dirtyEpoch(t, dirty, 0xA5)
				f.inj.FailNth(FaultCopyPage, f.inj.Calls(FaultCopyPage)+at.n)
				if _, err := f.c.Checkpoint(); err != nil {
					t.Fatalf("CoW commit: %v", err)
				}
				switch by {
				case "copier":
					waitStaged(t, f.c)
				case "fault":
					// The guest rewrites the set in order: each write faults
					// and stages its page before it lands.
					f.dirtyEpoch(t, dirty, 0x5A)
				}
				err = f.c.Quiesce()
				if !errors.Is(err, ErrConvergence) || !fault.IsInjected(err) {
					t.Fatalf("Quiesce = %v, want an injected ErrConvergence", err)
				}
				if f.inj.Tripped(FaultCopyPage) != 1 {
					t.Fatal("copy fault never fired")
				}
				postMem, err := f.c.Backup().DumpMemory()
				if err != nil {
					t.Fatalf("DumpMemory: %v", err)
				}
				if !bytes.Equal(preMem.Bytes(), postMem.Bytes()) {
					t.Fatal("backup memory changed by a lost publication")
				}
				if !bytes.Equal(preDisk, f.c.BackupDisk().Snapshot()) {
					t.Fatal("backup disk not reverted after a lost publication")
				}
				// The error was surfaced once, then cleared: the pipeline is
				// usable again and the next commit converges.
				if err := f.c.Quiesce(); err != nil {
					t.Fatalf("error not cleared after surfacing: %v", err)
				}
				f.dirtyEpoch(t, dirty, 0xC3)
				if _, err := f.c.Checkpoint(); err != nil {
					t.Fatalf("recovery commit: %v", err)
				}
				if err := f.c.Quiesce(); err != nil {
					t.Fatalf("recovery quiesce: %v", err)
				}
				if !domainsEqual(t, f.d, f.c.Backup()) || !vdisk.Equal(f.disk, f.c.BackupDisk()) {
					t.Fatal("backup diverged from the primary after the recovery commit")
				}
			})
		}
	}
}

// The backup holds the previous commit until a CoW set is published:
// with every page of the set staged, the backup still dumps to the
// previous commit's image, and only the quiesce's exchange makes it the
// primary as it was at the commit.
func TestCoWPublishesOnlyAtSettle(t *testing.T) {
	_, d, c := newPairWorkers(t, cost.Full, parallelTestPages, 2)
	if err := c.EnableCoW(); err != nil {
		t.Fatalf("EnableCoW: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	applyRandomEpoch(t, d, rng)
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("commit 1: %v", err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatalf("Quiesce 1: %v", err)
	}
	prev, err := c.Backup().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	applyRandomEpoch(t, d, rng)
	want, err := d.DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	if bytes.Equal(prev.Bytes(), want.Bytes()) {
		t.Fatal("epoch 2 changed nothing")
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("commit 2: %v", err)
	}
	waitStaged(t, c)
	staged, err := c.Backup().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	if !bytes.Equal(staged.Bytes(), prev.Bytes()) {
		t.Fatal("backup written before the set was published")
	}
	if err := c.Quiesce(); err != nil {
		t.Fatalf("Quiesce 2: %v", err)
	}
	published, err := c.Backup().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	if !bytes.Equal(published.Bytes(), want.Bytes()) {
		t.Fatal("published backup differs from the primary at the commit")
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
// set is unpublished: a page the copier has not staged yet is read from
// the primary, whose write trap keeps it at the committed bytes; once a
// guest write faults it into its staging page, from the staging page.
func TestReadCommittedPendingPageFromPrimary(t *testing.T) {
	_, d, c := newCoWCheckpointer(t)
	stopCopier(c)
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
		t.Fatal("staged page not read from its staging page")
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
				fillPage(t, d, pfn, 0xFF) // faults the page into its staging page
			}
			if got := readCommitted(t, c, pfn); !bytes.Equal(got, want) {
				t.Fatalf("round %d pfn %d: committed image differs from the at-commit bytes", round, pfn)
			}
		}
	}
}
