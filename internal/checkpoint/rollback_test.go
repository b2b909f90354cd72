package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/vdisk"
)

// Rollback restores exactly the pages the dirty log names. Across every
// memory stage, serial and sharded, with and without a disk, and with a
// copy or disk fault on random commits: after each Rollback the primary
// equals Committed byte for byte, the disk equals the backup disk, both
// logs keep what they held, and the next commit covers that log plus the
// pages written after it. An hv.restore fault fails Rollback and leaves
// the primary to the next one. A lost copy-on-write publication, which
// halts a controller, ends the run wherever it is reported.
func TestRollbackRestoresDirtyPages(t *testing.T) {
	const rounds = 20
	for _, arm := range stageArms {
		for _, workers := range []int{1, 2} {
			for _, disk := range []bool{false, true} {
				name := fmt.Sprintf("%s/workers=%d/disk=%v", arm.name, workers, disk)
				t.Run(name, func(t *testing.T) {
					inj, d, c, vd := newStageFixture(t, arm.opt, arm.cow, workers, disk)
					rng := rand.New(rand.NewSource(int64(len(name))*104729 + int64(workers)))
					page := make([]byte, mem.PageSize)
					write := func() {
						for n := 1 + rng.Intn(8); n > 0; n-- {
							rng.Read(page)
							if err := d.WritePhys(uint64(rng.Intn(parallelTestPages))*mem.PageSize, page); err != nil {
								t.Fatalf("WritePhys: %v", err)
							}
						}
						if vd != nil {
							if err := vd.WriteBlock(rng.Intn(vd.Blocks()), 0, page[:8]); err != nil {
								t.Fatalf("WriteBlock: %v", err)
							}
						}
					}
					tripped := 0
					for i := 0; i < rounds; i++ {
						// An epoch, committed or failed by a fault.
						write()
						site := []string{"", FaultCopyPage, vdisk.FaultCopy, hv.FaultRestore}[rng.Intn(4)]
						if arm.cow {
							// A lost publication ends a CoW run: only the last round loses one.
							if i == rounds-1 {
								site = FaultCopyPage
							} else if site == FaultCopyPage {
								site = ""
							}
						}
						switch site {
						case FaultCopyPage:
							inj.Fail(site, inj.Calls(site)+1+rng.Intn(d.DirtyCount()), 1, false)
						case vdisk.FaultCopy:
							inj.FailNext(site, 1, false)
						}
						_, err := c.Checkpoint()
						if arm.cow && errors.Is(err, ErrConvergence) {
							return
						}
						if err != nil && !fault.IsInjected(err) {
							t.Fatalf("round %d: Checkpoint: %v", i, err)
						}
						// The guest writes on past the boundary, as a replay does.
						if rng.Intn(2) == 0 {
							write()
						}
						pages := d.DirtyPages(nil)
						var blocks []mem.PFN
						if vd != nil {
							blocks = vd.HarvestDirty(nil)
						}
						if site == hv.FaultRestore {
							inj.FailNext(site, 1, false)
							if err := c.Rollback(); !fault.IsInjected(err) {
								t.Fatalf("round %d: Rollback under an hv.restore fault: %v", i, err)
							}
						}
						err = c.Rollback()
						tripped += inj.Tripped(site)
						inj.Reset()
						if arm.cow && errors.Is(err, ErrConvergence) {
							return
						}
						if err != nil {
							t.Fatalf("round %d: Rollback: %v", i, err)
						}
						checkRolledBack(t, i, c, vd)
						if got := d.DirtyPages(nil); !slices.Equal(got, pages) {
							t.Fatalf("round %d: rollback changed the dirty log from %v to %v", i, pages, got)
						}
						if vd != nil {
							if got := vd.HarvestDirty(nil); !slices.Equal(got, blocks) {
								t.Fatalf("round %d: rollback changed the disk log from %v to %v", i, blocks, got)
							}
						}

						// The next commit covers the log and what is written after.
						write()
						pages = d.DirtyPages(nil)
						var wantBlocks int
						if vd != nil {
							wantBlocks = vd.DirtyCount()
						}
						counts, err := c.Checkpoint()
						if err != nil {
							t.Fatalf("round %d: commit after rollback: %v", i, err)
						}
						if counts.DirtyPages != len(pages) || counts.DiskBlocks != wantBlocks {
							t.Fatalf("round %d: commit after rollback covered %d pages and %d blocks, want %d and %d",
								i, counts.DirtyPages, counts.DiskBlocks, len(pages), wantBlocks)
						}
						if n := d.DirtyCount(); n != 0 {
							t.Fatalf("round %d: the commit left %d pages in the dirty log", i, n)
						}
					}
					if tripped == 0 {
						t.Fatal("no injected fault fired")
					}
				})
			}
		}
	}
}

// checkRolledBack holds the primary to the committed image and the disk
// to the backup disk.
func checkRolledBack(t *testing.T, round int, c *Checkpointer, vd *vdisk.Disk) {
	t.Helper()
	snap, err := c.Committed()
	if err != nil {
		t.Fatalf("round %d: Committed: %v", round, err)
	}
	full, err := c.Primary().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	if full.VCPU != snap.VCPU || !bytes.Equal(full.Bytes(), snap.Bytes()) {
		t.Fatalf("round %d: rolled-back primary differs from the committed image", round)
	}
	if vd != nil && !bytes.Equal(vd.Snapshot(), c.BackupDisk().Snapshot()) {
		t.Fatalf("round %d: rolled-back disk differs from the backup disk", round)
	}
}
