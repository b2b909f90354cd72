package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/vdisk"
)

// Committed is the one image of the last commit. Across every memory
// stage, serial and sharded, with and without a disk, and with a copy,
// disk or dump fault at random commits: after each commit the image
// equals a full dump of the backup, and every page no commit could have
// published since the previous image is that image's page, shared by
// pointer.
func TestCommittedMatchesBackup(t *testing.T) {
	const commits = 30
	for _, arm := range stageArms {
		for _, workers := range []int{1, 2} {
			for _, disk := range []bool{false, true} {
				name := fmt.Sprintf("%s/workers=%d/disk=%v", arm.name, workers, disk)
				t.Run(name, func(t *testing.T) {
					inj, d, c, vd := newStageFixture(t, arm.opt, arm.cow, workers, disk)
					rng := rand.New(rand.NewSource(int64(len(name))*7919 + int64(workers)))
					// unsynced are the pages written since the last successful
					// commit; mayPublish every page a commit may have published
					// since the last image.
					unsynced := map[mem.PFN]bool{}
					mayPublish := map[mem.PFN]bool{}
					var prev *hv.Snapshot
					page := make([]byte, mem.PageSize)
					tripped := 0
					for i := 0; i < commits; i++ {
						for n := 1 + rng.Intn(8); n > 0; n-- {
							pfn := mem.PFN(rng.Intn(parallelTestPages))
							rng.Read(page)
							if err := d.WritePhys(uint64(pfn)*mem.PageSize, page); err != nil {
								t.Fatalf("WritePhys: %v", err)
							}
							unsynced[pfn] = true
						}
						if vd != nil {
							if err := vd.WriteBlock(rng.Intn(vd.Blocks()), 0, page[:8]); err != nil {
								t.Fatalf("WriteBlock: %v", err)
							}
						}
						site := []string{"", "", FaultCopyPage, vdisk.FaultCopy, hv.FaultDump}[rng.Intn(5)]
						switch site {
						case FaultCopyPage:
							inj.Fail(site, inj.Calls(site)+1+rng.Intn(len(unsynced)), 1, false)
						case vdisk.FaultCopy:
							inj.FailNext(site, 1, false)
						}
						if _, err := c.Checkpoint(); err == nil {
							for pfn := range unsynced {
								mayPublish[pfn] = true
							}
							clear(unsynced)
						} else if !fault.IsInjected(err) {
							t.Fatalf("commit %d: %v", i, err)
						}
						if site == hv.FaultDump {
							inj.FailNext(site, 1, false)
						}
						snap, err := c.Committed()
						tripped += inj.Tripped(site)
						// Unfired schedules must not outlive their commit.
						inj.Reset()
						if err != nil {
							if !fault.IsInjected(err) || (site == FaultCopyPage && !errors.Is(err, ErrConvergence)) {
								t.Fatalf("commit %d: Committed: %v", i, err)
							}
							continue
						}
						full, err := c.Backup().DumpMemory()
						if err != nil {
							t.Fatalf("DumpMemory: %v", err)
						}
						if snap.VCPU != full.VCPU || !bytes.Equal(snap.Bytes(), full.Bytes()) {
							t.Fatalf("commit %d: committed image differs from a full dump of the backup", i)
						}
						if prev != nil {
							for pfn := 0; pfn < parallelTestPages; pfn++ {
								if mayPublish[mem.PFN(pfn)] {
									continue
								}
								a, _ := prev.ReadPage(mem.PFN(pfn))
								b, _ := snap.ReadPage(mem.PFN(pfn))
								if &a[0] != &b[0] {
									t.Fatalf("commit %d: unpublished pfn %d was copied, not shared", i, pfn)
								}
							}
						}
						prev = snap
						clear(mayPublish)
					}
					if tripped == 0 {
						t.Fatal("no injected fault fired")
					}
				})
			}
		}
	}
}

// Deriving the image costs what the commits in between changed: after a
// one-page commit, Committed allocates the same on a 512-page and a
// 4096-page guest.
func TestCommittedAllocsIndependentOfGuestSize(t *testing.T) {
	measure := func(pages int) (allocs, bytes uint64) {
		h := hv.New(2*pages + 8)
		d, err := h.CreateDomain("vm", pages)
		if err != nil {
			t.Fatalf("CreateDomain: %v", err)
		}
		c, err := newCkpt(h, d, cost.Full, 1)
		if err != nil {
			t.Fatalf("NewWithParams: %v", err)
		}
		defer c.Close()
		if _, err := c.Committed(); err != nil {
			t.Fatalf("first Committed: %v", err)
		}
		const runs = 20
		var before, after runtime.MemStats
		for i := 0; i < runs; i++ {
			if err := d.WritePhys(uint64(i)*mem.PageSize, []byte{byte(i + 1)}); err != nil {
				t.Fatalf("WritePhys: %v", err)
			}
			if _, err := c.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			runtime.ReadMemStats(&before)
			if _, err := c.Committed(); err != nil {
				t.Fatalf("Committed: %v", err)
			}
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
			bytes += after.TotalAlloc - before.TotalAlloc
		}
		return allocs / runs, bytes / runs
	}
	smallAllocs, smallBytes := measure(512)
	largeAllocs, largeBytes := measure(4096)
	if smallAllocs != largeAllocs {
		t.Errorf("allocations per Committed: %d on 512 pages, %d on 4096", smallAllocs, largeAllocs)
	}
	if largeBytes > smallBytes+smallBytes/100 {
		t.Errorf("bytes per Committed: %d on 512 pages, %d on 4096", smallBytes, largeBytes)
	}
}

// stageArms are the commit's memory stages: the in-place ones, the
// exchange at Premap and Full, and the copy-on-write commit.
var stageArms = []struct {
	name string
	opt  cost.Optimization
	cow  bool
}{
	{"noopt", cost.NoOpt, false},
	{"memcpy", cost.Memcpy, false},
	{"premap", cost.Premap, false},
	{"full", cost.Full, false},
	{"full-cow", cost.Full, true},
}

// newStageFixture builds a checkpointer with a fault injector armed on
// its hypervisor and, when disk is set, a 16-block disk attached.
func newStageFixture(t *testing.T, opt cost.Optimization, cow bool, workers int, disk bool) (*fault.Injector, *hv.Domain, *Checkpointer, *vdisk.Disk) {
	t.Helper()
	h := hv.New(3*parallelTestPages + 8)
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
	var vd *vdisk.Disk
	if disk {
		vd = vdisk.New(16)
		if err := c.AttachDisk(vd); err != nil {
			t.Fatalf("AttachDisk: %v", err)
		}
	}
	if cow {
		if err := c.EnableCoW(); err != nil {
			t.Fatalf("EnableCoW: %v", err)
		}
	}
	return inj, d, c, vd
}
