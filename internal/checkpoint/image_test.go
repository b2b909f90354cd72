package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/remus"
)

// Committed copies no page: the first image and every derived one
// allocate only their page-table nodes — the same number of allocations
// on a 512-page and a 4,096-page guest, a first image far below one
// guest's bytes, and a derived one after a one-page commit below a page.
// Each figure is the least of three runs, so an allocation by another
// goroutine of the test binary does not count.
func TestCommittedCopiesNoPageBytes(t *testing.T) {
	measure := func(pages int) (first, derived spend) {
		first, derived = spend{^uint64(0), ^uint64(0)}, spend{^uint64(0), ^uint64(0)}
		for range 3 {
			f, d := committedSpend(t, pages)
			first, derived = first.least(f), derived.least(d)
		}
		return first, derived
	}
	smallFirst, smallDerived := measure(512)
	largeFirst, largeDerived := measure(4096)
	if smallFirst.allocs != largeFirst.allocs {
		t.Errorf("allocations of the first image: %d on 512 pages, %d on 4096", smallFirst.allocs, largeFirst.allocs)
	}
	if smallDerived.allocs != largeDerived.allocs {
		t.Errorf("allocations per derived image: %d on 512 pages, %d on 4096", smallDerived.allocs, largeDerived.allocs)
	}
	for _, m := range []struct {
		pages         int
		first, derive spend
	}{{512, smallFirst, smallDerived}, {4096, largeFirst, largeDerived}} {
		if guest := uint64(m.pages) * mem.PageSize; m.first.bytes > guest/32 {
			t.Errorf("%d pages: the first image allocated %d bytes, want nodes only (< %d)", m.pages, m.first.bytes, guest/32)
		}
		if m.derive.bytes >= mem.PageSize {
			t.Errorf("%d pages: a one-page derivation allocated %d bytes, want nodes only (< one page)", m.pages, m.derive.bytes)
		}
	}
}

// spend is what a call allocated: heap objects and bytes.
type spend struct{ allocs, bytes uint64 }

func (s spend) least(o spend) spend { return spend{min(s.allocs, o.allocs), min(s.bytes, o.bytes)} }

// committedSpend returns what the first Committed of a fresh
// checkpointer allocated, and the mean over 20 one-page commits of what
// each later one did.
func committedSpend(t *testing.T, pages int) (first, derived spend) {
	t.Helper()
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
	committed := func() spend {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := c.Committed(); err != nil {
			t.Fatalf("Committed: %v", err)
		}
		runtime.ReadMemStats(&after)
		return spend{after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc}
	}
	first = committed()
	const runs = 20
	for i := 0; i < runs; i++ {
		if err := d.WritePhys(uint64(i)*mem.PageSize, []byte{byte(i + 1)}); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
		if _, err := c.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		one := committed()
		derived.allocs += one.allocs
		derived.bytes += one.bytes
	}
	return first, spend{derived.allocs / runs, derived.bytes / runs}
}

// Images kept by readers on other goroutines hold still while the owner
// goes on committing — every level, eager and copy-on-write, sharing
// pages into the frames under the images, the guest copying shared pages
// on write, spare pages reused — and deriving new images. Run under
// -race, it also shows no reader touches a page a writer does.
func TestRetainedImagesReadAlongsideCommits(t *testing.T) {
	const rounds = 30
	for _, arm := range stageArms {
		t.Run(arm.name, func(t *testing.T) {
			_, d, c, _ := newStageFixture(t, arm.opt, arm.cow, 2, false)
			type kept struct {
				snap *hv.Snapshot
				want []byte
			}
			var (
				mu     sync.Mutex
				images []kept
				stop   atomic.Bool
				wg     sync.WaitGroup
			)
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						mu.Lock()
						held := images
						mu.Unlock()
						for i, k := range held {
							for pfn := 0; pfn < k.snap.Pages; pfn++ {
								p, _ := k.snap.ReadPage(mem.PFN(pfn))
								if !bytes.Equal(p, k.want[pfn*mem.PageSize:(pfn+1)*mem.PageSize]) {
									t.Errorf("image %d changed at pfn %d while commits went on", i, pfn)
									return
								}
							}
						}
						runtime.Gosched()
					}
				}()
			}
			rng := rand.New(rand.NewSource(int64(len(arm.name))))
			for i := 0; i < rounds && !t.Failed(); i++ {
				applyRandomEpoch(t, d, rng)
				if _, err := c.Checkpoint(); err != nil {
					t.Fatalf("commit %d: %v", i, err)
				}
				snap, err := c.Committed()
				if err != nil {
					t.Fatalf("Committed %d: %v", i, err)
				}
				mu.Lock()
				images = append(images, kept{snap, snap.Bytes()})
				mu.Unlock()
			}
			stop.Store(true)
			wg.Wait()
		})
	}
}

// A guest whose memory is mostly never written gives its frames pages
// of their own as it first writes them, and copies a page it shares with
// the backup before rewriting it, while the pipelined shipper replicates
// each commit to a delta+dedup replica and readers check retained images
// (whose never-written pages are the shared zero page). Run under -race,
// it shows a guest write races with none of them. No image page changes
// after its image was taken, and no backup page changes while the backup
// holds it; the backup and the replica end equal to the primary, and the
// pages the guest never wrote hold no page there either.
func TestSharedPagesAlongsideShipperAndImages(t *testing.T) {
	const pages, rounds = parallelTestPages, 30
	h := hv.New(3*pages + 8)
	m := h.Machine()
	d, err := h.CreateDomain("vm", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	if err := d.WritePhys(0, []byte("boot")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	c, err := NewWithParams(h, d, Params{Opt: cost.Full, Workers: 2, Remus: remus.ModeDeltaDedup})
	if err != nil {
		t.Fatalf("NewWithParams: %v", err)
	}
	if err := c.EnableCoW(); err != nil {
		t.Fatalf("EnableCoW: %v", err)
	}
	if err := c.EnableRemoteReplication([]byte("0123456789abcdef")); err != nil {
		t.Fatalf("EnableRemoteReplication: %v", err)
	}
	remote := c.Remote()
	type kept struct {
		snap *hv.Snapshot
		want []byte
	}
	var (
		mu     sync.Mutex
		images []kept
		stop   atomic.Bool
		wg     sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			mu.Lock()
			held := images
			mu.Unlock()
			for i, k := range held {
				for pfn := 0; pfn < k.snap.Pages; pfn++ {
					p, _ := k.snap.ReadPage(mem.PFN(pfn))
					if !bytes.Equal(p, k.want[pfn*mem.PageSize:(pfn+1)*mem.PageSize]) {
						t.Errorf("image %d changed at pfn %d", i, pfn)
						return
					}
				}
			}
			runtime.Gosched()
		}
	}()
	// published is each backup page's bytes as its commit published it.
	type held struct {
		page *mem.Page
		want mem.Page
	}
	published := make([]held, pages)
	checkBackup := func(when string) {
		t.Helper()
		for pfn := range published {
			if p := pageOf(t, c.Backup(), m, mem.PFN(pfn)); p == published[pfn].page && *p != published[pfn].want {
				t.Fatalf("%s: backup page of pfn %d changed after its commit", when, pfn)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	fresh := rng.Perm(pages - 1) // pages 1..pages-1, never written yet
	for i := range fresh {
		fresh[i]++
	}
	var written []int
	for i := 0; i < rounds && !t.Failed(); i++ {
		// The guest runs behind the shipper of the last commit: four
		// first writes (one all zero, which gives no page), and rewrites
		// of pages it shares with the backup.
		for k := 0; k < 4 && len(fresh) > 0; k++ {
			pfn := fresh[0]
			fresh = fresh[1:]
			b := byte(1 + rng.Intn(255))
			if k == 3 {
				b = 0
			} else {
				written = append(written, pfn)
			}
			if err := d.WritePhys(uint64(pfn)*mem.PageSize+uint64(rng.Intn(mem.PageSize-8)), bytes.Repeat([]byte{b}, 8)); err != nil {
				t.Fatalf("WritePhys: %v", err)
			}
		}
		for k := 0; k < 3 && len(written) > 0; k++ {
			pfn := written[rng.Intn(len(written))]
			if err := d.WritePhys(uint64(pfn)*mem.PageSize+uint64(rng.Intn(mem.PageSize-8)), []byte{byte(i), 1, 2, 3}); err != nil {
				t.Fatalf("WritePhys: %v", err)
			}
		}
		if err := d.WritePhys(0, []byte{byte(i)}); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
		checkBackup(fmt.Sprintf("round %d writes", i))
		if _, err := c.Checkpoint(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		checkBackup(fmt.Sprintf("commit %d", i))
		for pfn := range published {
			p := pageOf(t, c.Backup(), m, mem.PFN(pfn))
			published[pfn] = held{p, *p}
		}
		if i%3 == 0 {
			snap, err := c.Committed()
			if err != nil {
				t.Fatalf("Committed %d: %v", i, err)
			}
			mu.Lock()
			images = append(images, kept{snap, snap.Bytes()})
			mu.Unlock()
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if c.LastReport().RemoteDegraded {
		t.Fatal("remote replication degraded")
	}
	for _, dom := range []*hv.Domain{c.Backup(), remote} {
		if !domainsEqual(t, d, dom) {
			t.Fatalf("%s differs from the primary", dom.Name())
		}
		for _, pfn := range fresh {
			mfn, _ := dom.Translate(mem.PFN(pfn))
			if m.Written(mfn) {
				t.Fatalf("%s pfn %d: the guest never wrote it, yet its frame holds a page", dom.Name(), pfn)
			}
		}
	}
}

// An image kept past Checkpointer.Close keeps its bytes after the
// VM's domains are destroyed and new ones allocated over their frames
// and written: no freed frame hands an image's page to the next domain.
func TestImageOutlivesClose(t *testing.T) {
	for _, arm := range stageArms {
		t.Run(arm.name, func(t *testing.T) {
			h := hv.New(4*domPages + 8)
			d, err := h.CreateDomain("vm", domPages)
			if err != nil {
				t.Fatalf("CreateDomain: %v", err)
			}
			c, err := newCkpt(h, d, arm.opt, 1)
			if err != nil {
				t.Fatalf("NewWithParams: %v", err)
			}
			if arm.cow {
				if err := c.EnableCoW(); err != nil {
					t.Fatalf("EnableCoW: %v", err)
				}
			}
			rng := rand.New(rand.NewSource(11))
			var snap *hv.Snapshot
			for i := 0; i < 4; i++ {
				applyRandomEpoch(t, d, rng)
				if _, err := c.Checkpoint(); err != nil {
					t.Fatalf("commit %d: %v", i, err)
				}
				if snap, err = c.Committed(); err != nil {
					t.Fatalf("Committed: %v", err)
				}
			}
			want := snap.Bytes()
			backup := c.Backup()
			if err := c.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			for _, dom := range []*hv.Domain{d, backup} {
				if err := h.DestroyDomain(dom.ID()); err != nil {
					t.Fatalf("DestroyDomain: %v", err)
				}
			}
			fill := bytes.Repeat([]byte{0xEE}, domPages*mem.PageSize)
			for _, name := range []string{"next", "after"} {
				n, err := h.CreateDomain(name, domPages)
				if err != nil {
					t.Fatalf("CreateDomain: %v", err)
				}
				if err := n.WritePhys(0, fill); err != nil {
					t.Fatalf("WritePhys: %v", err)
				}
			}
			if !bytes.Equal(snap.Bytes(), want) {
				t.Fatal("an image kept past Close changed once its frames went to new domains")
			}
		})
	}
}

// FuzzCommittedImage drives a checkpointer through a random sequence of
// guest writes, commits (some with a copy fault armed), Committed calls
// kept in a ring of three, and rollbacks, eager or copy-on-write by the
// first byte. Every image must equal a full dump of the backup when it
// is returned, and every retained image must still equal the copy taken
// then, after every later step.
func FuzzCommittedImage(f *testing.F) {
	f.Add([]byte{0, 0, 5, 1, 1, 2, 0, 9, 2, 1, 2, 3, 1, 2})
	f.Add([]byte{1, 0, 5, 1, 1, 2, 0, 9, 2, 1, 2, 0, 3, 7, 1, 3, 2})
	f.Add([]byte{0, 2, 1, 4, 1, 0, 1, 7, 1, 2, 0, 4, 9, 4, 1, 2, 2, 2, 1, 2})
	f.Add([]byte{1, 4, 0, 1, 8, 1, 2, 0, 2, 3, 4, 1, 2, 0, 6, 2, 1, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 256 {
			return
		}
		const pages = 96
		h := hv.New(3*pages + 8)
		inj := fault.NewInjector()
		h.InjectFaults(inj)
		d, err := h.CreateDomain("vm", pages)
		if err != nil {
			t.Fatalf("CreateDomain: %v", err)
		}
		c, err := newCkpt(h, d, cost.Full, 1+int(ops[0]>>1&1))
		if err != nil {
			t.Fatalf("NewWithParams: %v", err)
		}
		defer c.Close()
		if ops[0]&1 == 1 {
			if err := c.EnableCoW(); err != nil {
				t.Fatalf("EnableCoW: %v", err)
			}
		}
		type kept struct {
			snap *hv.Snapshot
			want []byte
		}
		var ring []kept
		next := func(i *int) byte {
			*i++
			if *i < len(ops) {
				return ops[*i]
			}
			return 0
		}
		for i := 1; i < len(ops); i++ {
			switch ops[i] % 5 {
			case 0: // guest write: a page, filled with one byte
				pfn := int(next(&i)) % pages
				if err := d.WritePhys(uint64(pfn)*mem.PageSize, bytes.Repeat([]byte{next(&i)}, mem.PageSize)); err != nil {
					t.Fatalf("WritePhys: %v", err)
				}
			case 1:
				if _, err := c.Checkpoint(); err != nil && !fault.IsInjected(err) {
					t.Fatalf("Checkpoint: %v", err)
				}
			case 2:
				snap, err := c.Committed()
				if err != nil {
					t.Fatalf("Committed: %v", err)
				}
				full, err := c.Backup().DumpMemory()
				if err != nil {
					t.Fatalf("DumpMemory: %v", err)
				}
				want := snap.Bytes()
				if !bytes.Equal(want, full.Bytes()) {
					t.Fatalf("op %d: Committed differs from a full dump of the backup", i)
				}
				if len(ring) == 3 {
					ring = ring[1:]
				}
				ring = append(ring, kept{snap, want})
			case 3: // roll back, sharing the image's pages into the primary
				if err := c.Rollback(); err != nil {
					t.Fatalf("Rollback: %v", err)
				}
				snap, err := c.Committed()
				if err != nil {
					t.Fatalf("Committed: %v", err)
				}
				now, err := d.DumpMemory()
				if err != nil {
					t.Fatalf("DumpMemory: %v", err)
				}
				if !bytes.Equal(now.Bytes(), snap.Bytes()) {
					t.Fatalf("op %d: primary differs from the committed image after Rollback", i)
				}
			case 4: // fail one page copy of the next commit
				inj.Fail(FaultCopyPage, inj.Calls(FaultCopyPage)+1+int(next(&i))%4, 1, false)
			}
			for j, k := range ring {
				if !bytes.Equal(k.snap.Bytes(), k.want) {
					t.Fatalf("op %d: retained image %d changed", i, j)
				}
			}
		}
	})
}
