package checkpoint

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/hv"
	"repro/internal/mem"
)

// A dirty page the guest wrote only with zeros reads zero in the backup
// without giving the backup's frame a page: the commit hands over the
// primary's frame as it is, and a frame the zero write left without a
// page shares none.
func TestZeroWrittenPageGivesBackupNoPage(t *testing.T) {
	for _, opt := range []cost.Optimization{cost.Memcpy, cost.Premap, cost.Full} {
		t.Run(opt.String(), func(t *testing.T) {
			h, d, c := newPair(t, opt)
			const pfn = 9
			if err := d.WritePhys(pfn*mem.PageSize+100, make([]byte, 64)); err != nil {
				t.Fatalf("WritePhys: %v", err)
			}
			counts, err := c.Checkpoint()
			if err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if counts.DirtyPages != 1 {
				t.Fatalf("commit saw %d dirty pages, want the zero-written one", counts.DirtyPages)
			}
			mfn, err := c.Backup().Translate(pfn)
			if err != nil {
				t.Fatalf("Translate: %v", err)
			}
			if h.Machine().Written(mfn) {
				t.Fatal("a page written only with zeros gave the backup's frame a page")
			}
			checkPage(t, c.Backup(), pfn, 0, "backup of a zero-written page")
		})
	}
}

// After warm-up a commit and the next epoch's writes to the pages it
// shared allocate nothing, eager or copy-on-write: each write copies its
// page into a spare, and the commit hands the pages it replaced in the
// backup back to the spares.
func TestShareCommitAllocatesNothing(t *testing.T) {
	for _, cow := range []bool{false, true} {
		name := "eager"
		if cow {
			name = "cow"
		}
		t.Run(name, func(t *testing.T) {
			const pages, written = 512, 64
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
			if cow {
				if err := c.EnableCoW(); err != nil {
					t.Fatalf("EnableCoW: %v", err)
				}
			}
			stamp := []byte{0}
			epoch := func() {
				stamp[0]++
				for pfn := 0; pfn < written; pfn++ {
					if err := d.WritePhys(uint64(pfn*pages/written)*mem.PageSize+8, stamp); err != nil {
						t.Fatalf("WritePhys: %v", err)
					}
				}
				if _, err := c.Checkpoint(); err != nil {
					t.Fatalf("Checkpoint: %v", err)
				}
			}
			epoch()
			epoch()
			if allocs := testing.AllocsPerRun(10, epoch); allocs != 0 {
				t.Fatalf("a commit and the writes of the next epoch allocated %v times, want 0", allocs)
			}
			if !domainsEqual(t, d, c.Backup()) {
				t.Fatal("backup differs from the primary")
			}
		})
	}
}
