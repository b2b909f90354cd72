package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/vdisk"
)

// exchangeFixture is a faulty hypervisor with a checkpointed primary, a
// disk attached and one clean commit behind it.
type exchangeFixture struct {
	d    *hv.Domain
	inj  *fault.Injector
	c    *Checkpointer
	disk *vdisk.Disk
}

func newExchangeFixture(t *testing.T, opt cost.Optimization, workers int) *exchangeFixture {
	t.Helper()
	h := hv.New(2*parallelTestPages + 8)
	inj := fault.NewInjector()
	h.InjectFaults(inj)
	d, err := h.CreateDomain("vm", parallelTestPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := newCkpt(h, d, opt, workers)
	if err != nil {
		t.Fatalf("NewWithParams: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	disk := vdisk.New(16)
	if err := c.AttachDisk(disk); err != nil {
		t.Fatalf("AttachDisk: %v", err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("clean checkpoint: %v", err)
	}
	return &exchangeFixture{d: d, inj: inj, c: c, disk: disk}
}

// dirtyEpoch writes distinct contents to n pages spread over the guest
// and to one disk block.
func (f *exchangeFixture) dirtyEpoch(t *testing.T, n int, tag byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		pfn := uint64(i * (parallelTestPages / n))
		page := bytes.Repeat([]byte{tag, byte(i)}, mem.PageSize/2)
		if err := f.d.WritePhys(pfn*mem.PageSize, page); err != nil {
			t.Fatalf("WritePhys pfn %d: %v", pfn, err)
		}
	}
	if err := f.disk.WriteBlock(5, 0, []byte{tag, tag, tag}); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
}

// backupFrames returns the address of every backup page as the
// checkpointer's global mapping sees it.
func (f *exchangeFixture) backupFrames(t *testing.T) []*byte {
	t.Helper()
	out := make([]*byte, f.d.Pages())
	for pfn := range out {
		p, err := f.c.gmBackup.Page(mem.PFN(pfn))
		if err != nil {
			t.Fatalf("gmBackup.Page(%d): %v", pfn, err)
		}
		out[pfn] = &p[0]
	}
	return out
}

// assertFailedCommitUnwound checks what a failed commit must leave: the
// backup's memory and disk as they were, the epoch's dirty pages and
// block marked again, and a retry that makes the backup equal the
// primary.
func (f *exchangeFixture) assertFailedCommitUnwound(t *testing.T, preMem *hv.Snapshot, preDisk []byte, dirtyPages int) {
	t.Helper()
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
	if got := f.d.DirtyCount(); got != dirtyPages {
		t.Fatalf("primary dirty pages after failed commit = %d, want %d", got, dirtyPages)
	}
	if got := f.disk.DirtyCount(); got != 1 {
		t.Fatalf("disk dirty blocks after failed commit = %d, want 1", got)
	}
	if _, err := f.c.Checkpoint(); err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
	if !domainsEqual(t, f.d, f.c.Backup()) {
		t.Fatal("backup memory diverged after retried commit")
	}
	if !vdisk.Equal(f.disk, f.c.BackupDisk()) {
		t.Fatal("backup disk diverged after retried commit")
	}
}

// A copy fault at any page of a staged commit — first, middle or last,
// in any shard, with the disk copy overlapping — leaves the backup's
// memory and disk exactly as they were and the dirty logs re-marked.
func TestStagedCopyFaultLeavesBackupUntouched(t *testing.T) {
	const dirty = 32
	for _, workers := range []int{1, 2} {
		for _, at := range []struct {
			name string
			n    int
		}{{"first", 1}, {"middle", dirty / 2}, {"last", dirty}} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, at.name), func(t *testing.T) {
				f := newExchangeFixture(t, cost.Full, workers)
				preMem, err := f.c.Backup().DumpMemory()
				if err != nil {
					t.Fatalf("DumpMemory: %v", err)
				}
				preDisk := f.c.BackupDisk().Snapshot()
				f.dirtyEpoch(t, dirty, 0xA5)
				f.inj.Fail(FaultCopyPage, f.inj.Calls(FaultCopyPage)+at.n, 1, false)
				if _, err := f.c.Checkpoint(); err == nil {
					t.Fatal("copy fault did not fail the commit")
				}
				if f.inj.Tripped(FaultCopyPage) != 1 {
					t.Fatal("copy fault never fired")
				}
				f.assertFailedCommitUnwound(t, preMem, preDisk, dirty)
			})
		}
	}
}

// A disk-copy failure overlapping a successful memory stage abandons the
// stage: on the premapped path no frame is exchanged, and the in-place
// stages restore the pages they wrote.
func TestDiskCopyFailureLeavesMemoryUncommitted(t *testing.T) {
	for _, opt := range []cost.Optimization{cost.Full, cost.Memcpy, cost.NoOpt} {
		t.Run(opt.String(), func(t *testing.T) {
			const dirty = 16
			f := newExchangeFixture(t, opt, 2)
			var frames []*byte
			if opt >= cost.Premap {
				frames = f.backupFrames(t)
			}
			preMem, err := f.c.Backup().DumpMemory()
			if err != nil {
				t.Fatalf("DumpMemory: %v", err)
			}
			preDisk := f.c.BackupDisk().Snapshot()
			f.dirtyEpoch(t, dirty, 0x3C)
			f.inj.FailNth(vdisk.FaultCopy, f.inj.Calls(vdisk.FaultCopy)+1)
			if _, err := f.c.Checkpoint(); err == nil {
				t.Fatal("disk copy fault did not fail the commit")
			}
			if frames != nil {
				for pfn, now := range f.backupFrames(t) {
					if now != frames[pfn] {
						t.Fatalf("backup frame of pfn %d exchanged by a failed commit", pfn)
					}
				}
			}
			f.assertFailedCommitUnwound(t, preMem, preDisk, dirty)
		})
	}
}

// Eager commits exchange the backup's frames; a later CoW commit copies
// through the same global mapping, so the mapping must name the live
// frames. The committed image read three ways must agree with the
// primary at the commit instant.
func TestCoWAfterExchangeWritesLiveFrames(t *testing.T) {
	_, d, c := newPairWorkers(t, cost.Full, parallelTestPages, 2)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 6; i++ {
		applyRandomEpoch(t, d, rng)
		if _, err := c.Checkpoint(); err != nil {
			t.Fatalf("eager commit %d: %v", i, err)
		}
	}
	if err := c.EnableCoW(); err != nil {
		t.Fatalf("EnableCoW: %v", err)
	}
	applyRandomEpoch(t, d, rng)
	want, err := d.DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("CoW commit: %v", err)
	}
	if err := c.Quiesce(); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	got, err := c.Backup().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	page := make([]byte, mem.PageSize)
	for pfn := 0; pfn < d.Pages(); pfn++ {
		w, _ := want.ReadPage(mem.PFN(pfn))
		dumped, _ := got.ReadPage(mem.PFN(pfn))
		mapped, err := c.gmBackup.Page(mem.PFN(pfn))
		if err != nil {
			t.Fatalf("gmBackup.Page(%d): %v", pfn, err)
		}
		if err := c.ReadCommitted(mem.PFN(pfn), page); err != nil {
			t.Fatalf("ReadCommitted(%d): %v", pfn, err)
		}
		if !bytes.Equal(dumped, w) || !bytes.Equal(mapped, w) || !bytes.Equal(page, w) {
			t.Fatalf("pfn %d: dump/mapping/ReadCommitted disagree with the committed primary", pfn)
		}
	}
}

// Over many seeded commits the share keeps ownership exact: the global
// mapping names the machine's live frame; every backup frame that holds
// a page holds one no other backup page holds (the rest read the shared
// zero page) and that no primary page holds but its own PFN's; and a
// page the guest writes after the commit is copied away from the
// backup's, which keeps the committed bytes — for the eager commit, and
// for the CoW commit with the guest writing its armed pages.
func TestExchangeKeepsPagesDisjoint(t *testing.T) {
	for _, cow := range []bool{false, true} {
		t.Run(fmt.Sprintf("cow=%v", cow), func(t *testing.T) {
			h, d, c := newPairWorkers(t, cost.Full, parallelTestPages, 2)
			m := h.Machine()
			if cow {
				if err := c.EnableCoW(); err != nil {
					t.Fatalf("EnableCoW: %v", err)
				}
			}
			rng := rand.New(rand.NewSource(23))
			for i := 0; i < 50; i++ {
				before, err := c.Backup().DumpMemory()
				if err != nil {
					t.Fatalf("DumpMemory: %v", err)
				}
				applyRandomEpoch(t, d, rng)
				after, err := c.Backup().DumpMemory()
				if err != nil {
					t.Fatalf("DumpMemory: %v", err)
				}
				if !bytes.Equal(before.Bytes(), after.Bytes()) {
					t.Fatalf("epoch %d: the guest's writes reached the backup", i)
				}
				if _, err := c.Checkpoint(); err != nil {
					t.Fatalf("commit %d: %v", i, err)
				}
				primary := make(map[*mem.Page]mem.PFN, d.Pages())
				for pfn := 0; pfn < d.Pages(); pfn++ {
					primary[pageOf(t, d, m, mem.PFN(pfn))] = mem.PFN(pfn)
				}
				owner := make(map[*byte]string, d.Pages())
				for pfn := 0; pfn < d.Pages(); pfn++ {
					p, err := c.gmBackup.Page(mem.PFN(pfn))
					if err != nil {
						t.Fatalf("gmBackup.Page(%d): %v", pfn, err)
					}
					mfn, err := c.Backup().Translate(mem.PFN(pfn))
					if err != nil {
						t.Fatalf("Translate(%d): %v", pfn, err)
					}
					live, err := m.Frame(mfn)
					if err != nil {
						t.Fatalf("Frame(%d): %v", mfn, err)
					}
					if &live[0] != &p[0] {
						t.Fatalf("commit %d: mapping of pfn %d is not the machine's live frame", i, pfn)
					}
					if !m.Written(mfn) {
						// A never-written frame reads the one shared zero page.
						if !bytes.Equal(p, make([]byte, mem.PageSize)) {
							t.Fatalf("commit %d: never-written pfn %d does not read zero", i, pfn)
						}
						continue
					}
					if prev, dup := owner[&p[0]]; dup {
						t.Fatalf("commit %d: pfn %d shares its page with %s", i, pfn, prev)
					}
					owner[&p[0]] = fmt.Sprintf("pfn %d", pfn)
					if at, ok := primary[(*mem.Page)(p)]; ok && at != mem.PFN(pfn) {
						t.Fatalf("commit %d: backup pfn %d holds the primary's page of pfn %d", i, pfn, at)
					}
				}
			}
			if !domainsEqual(t, d, c.Backup()) {
				t.Fatal("backup diverged from primary")
			}
		})
	}
}
