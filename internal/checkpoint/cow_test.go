package checkpoint

import (
	"bytes"
	"math/rand"
	"testing"

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

// pageOf returns the machine page behind page pfn of dom.
func pageOf(t *testing.T, dom *hv.Domain, m *mem.Machine, pfn mem.PFN) *mem.Page {
	t.Helper()
	mfn, err := dom.Translate(pfn)
	if err != nil {
		t.Fatalf("Translate(%d): %v", pfn, err)
	}
	return m.Page(mfn)
}

// The CoW commit delivers the exact paused-instant snapshot, and the
// backup holds it as the commit returns: pages the guest overwrites
// right after resume take their write faults and keep their at-commit
// contents in the backup, and the rest need nothing more. Committed ends
// the set's write accounting, dropping the traps left.
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
	for _, pfn := range pfns {
		checkPage(t, c.Backup(), pfn, 0xAA, "backup at the commit")
	}

	// The guest rewrites half the committed set immediately — those
	// writes fault and must not reach the backup.
	fillPage(t, d, 1, 0xBB)
	fillPage(t, d, 2, 0xBB)
	if got := d.WriteFaults(); got != 2 {
		t.Fatalf("post-resume writes to two armed pages took %d write faults, want 2", got)
	}
	for _, pfn := range pfns {
		checkPage(t, c.Backup(), pfn, 0xAA, "backup after the guest's writes")
	}
	checkPage(t, d, 1, 0xBB, "primary keeps the new write")
	if _, err := c.Committed(); err != nil {
		t.Fatalf("Committed: %v", err)
	}
	if d.WatchCount() != 0 {
		t.Fatalf("WatchCount = %d after Committed, want 0 (traps dropped)", d.WatchCount())
	}
	st := c.CoWStats()
	if st.Commits != 1 || st.ArmedPages == 0 {
		t.Fatalf("CoWStats = %+v, want 1 commit with armed pages", st)
	}
}

// A copy fault fails the CoW commit under pause, before any page is
// shared. The three arms are the three ways a page of a CoW set was once
// copied after the guest resumed — by a background copier, by the
// guest's write fault, by the drain at the next settle — each of which
// could lose the set's publication; now each only names what follows the
// failed commit: nothing (copier), the guest rewriting the set (fault),
// or a committed image taken (drain). Whichever copy fails — the first,
// a middle or the last — the backup's memory and disk stay at the
// previous commit, no trap is armed for the failed set, and the retried
// commit converges.
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
				preMem, err := f.c.Backup().DumpMemory()
				if err != nil {
					t.Fatalf("DumpMemory: %v", err)
				}
				preDisk := f.c.BackupDisk().Snapshot()
				f.dirtyEpoch(t, dirty, 0xA5)
				f.inj.FailNth(FaultCopyPage, f.inj.Calls(FaultCopyPage)+at.n)
				_, err = f.c.Checkpoint()
				if err == nil || !fault.IsInjected(err) {
					t.Fatalf("CoW commit with a copy fault = %v, want an injected failure", err)
				}
				if f.inj.Tripped(FaultCopyPage) != 1 {
					t.Fatal("copy fault never fired")
				}
				if st := f.c.CoWStats(); st.Commits != 0 || f.d.WatchCount() != 0 {
					t.Fatalf("failed commit counted (%+v) or armed %d traps", st, f.d.WatchCount())
				}
				switch by {
				case "fault":
					f.dirtyEpoch(t, dirty, 0x5A)
				case "drain":
					if _, err := f.c.Committed(); err != nil {
						t.Fatalf("Committed: %v", err)
					}
				}
				postMem, err := f.c.Backup().DumpMemory()
				if err != nil {
					t.Fatalf("DumpMemory: %v", err)
				}
				if !bytes.Equal(preMem.Bytes(), postMem.Bytes()) {
					t.Fatal("backup memory changed by a failed commit")
				}
				if !bytes.Equal(preDisk, f.c.BackupDisk().Snapshot()) {
					t.Fatal("backup disk changed by a failed commit")
				}
				if _, err := f.c.Checkpoint(); err != nil {
					t.Fatalf("recovery commit: %v", err)
				}
				if !domainsEqual(t, f.d, f.c.Backup()) || !vdisk.Equal(f.disk, f.c.BackupDisk()) {
					t.Fatal("backup diverged from the primary after the recovery commit")
				}
			})
		}
	}
}

// The backup holds a CoW commit from the moment the commit returns, and
// keeps it while the guest rewrites the set: nothing is left to settle.
func TestCoWPublishesAtCommit(t *testing.T) {
	_, d, c := newPairWorkers(t, cost.Full, parallelTestPages, 2)
	if err := c.EnableCoW(); err != nil {
		t.Fatalf("EnableCoW: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3; i++ {
		applyRandomEpoch(t, d, rng)
		want, err := d.DumpMemory()
		if err != nil {
			t.Fatalf("DumpMemory: %v", err)
		}
		if _, err := c.Checkpoint(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		applyRandomEpoch(t, d, rng)
		got, err := c.Backup().DumpMemory()
		if err != nil {
			t.Fatalf("DumpMemory: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("commit %d: backup differs from the primary at the commit", i)
		}
	}
}

// Rollback restores the paused-instant snapshot into the primary and
// leaves no write traps behind.
func TestCoWRollbackRestoresPausedInstant(t *testing.T) {
	_, d, c := newCoWCheckpointer(t)
	pfns := []mem.PFN{1, 2, 3, 4}
	for _, pfn := range pfns {
		fillPage(t, d, pfn, 0xAA)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Dirty the primary after resume, then roll back.
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

// A committed page the guest has not written again is one page, held by
// the primary and the backup alike, and ReadCommitted reads it; the
// guest's next write copies it away from the primary, and the backup
// keeps the committed bytes in the page it holds.
func TestReadCommittedPendingPageFromPrimary(t *testing.T) {
	h, d, c := newCoWCheckpointer(t)
	m := h.Machine()
	const pfn = 5
	fillPage(t, d, pfn, 0xAA)
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	committed := pageOf(t, c.Backup(), m, pfn)
	if pageOf(t, d, m, pfn) != committed {
		t.Fatal("the commit copied the page instead of sharing it")
	}
	want := bytes.Repeat([]byte{0xAA}, mem.PageSize)
	if got := readCommitted(t, c, pfn); !bytes.Equal(got, want) {
		t.Fatal("shared page does not read the committed bytes")
	}

	fillPage(t, d, pfn, 0xBB)
	if pageOf(t, d, m, pfn) == committed || pageOf(t, c.Backup(), m, pfn) != committed {
		t.Fatal("the guest's write did not copy the page away from the backup's")
	}
	if got := readCommitted(t, c, pfn); !bytes.Equal(got, want) {
		t.Fatal("the guest's write reached the committed page")
	}
}

// Every committed page reads back at its at-commit bytes, commit after
// commit, however the guest's copies on write interleave with the reads.
func TestReadCommittedAcrossGuestCopies(t *testing.T) {
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
				fillPage(t, d, pfn, 0xFF) // copies the page away from the backup's
			}
			if got := readCommitted(t, c, pfn); !bytes.Equal(got, want) {
				t.Fatalf("round %d pfn %d: committed image differs from the at-commit bytes", round, pfn)
			}
		}
	}
}
