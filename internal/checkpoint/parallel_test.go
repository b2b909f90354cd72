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
	"repro/internal/remus"
	"repro/internal/vdisk"
)

// parallelTestPages is large enough that a 4..8-way shard split gives
// every worker real work.
const parallelTestPages = 256

func newPairWorkers(t *testing.T, opt cost.Optimization, pages, workers int) (*hv.Hypervisor, *hv.Domain, *Checkpointer) {
	t.Helper()
	h := hv.New(3*pages + 8)
	d, err := h.CreateDomain("vm", pages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := newCkpt(h, d, opt, workers)
	if err != nil {
		t.Fatalf("NewWithParams: %v", err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return h, d, c
}

// applyRandomEpoch dirties a randomized subset of pages with
// deterministic (seeded) contents and returns the rng for reuse.
func applyRandomEpoch(t *testing.T, d *hv.Domain, rng *rand.Rand) {
	t.Helper()
	page := make([]byte, mem.PageSize)
	for pfn := 0; pfn < d.Pages(); pfn++ {
		if rng.Intn(3) != 0 {
			continue
		}
		rng.Read(page)
		if err := d.WritePhys(uint64(pfn)*mem.PageSize, page); err != nil {
			t.Fatalf("WritePhys pfn %d: %v", pfn, err)
		}
	}
}

// TestParallelCopyMatchesSerial runs identical randomized epochs
// through a serial and a parallel checkpointer and asserts the backups
// are byte-identical after every commit — the sharded copy, scan, and
// undo capture must be indistinguishable from the serial path.
func TestParallelCopyMatchesSerial(t *testing.T) {
	for _, opt := range []cost.Optimization{cost.Memcpy, cost.Full} {
		for _, workers := range []int{4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", opt, workers), func(t *testing.T) {
				_, dSerial, cSerial := newPairWorkers(t, opt, parallelTestPages, 1)
				_, dPar, cPar := newPairWorkers(t, opt, parallelTestPages, workers)
				if cPar.Workers() != workers {
					t.Fatalf("Workers() = %d, want %d", cPar.Workers(), workers)
				}
				rngSerial := rand.New(rand.NewSource(7))
				rngPar := rand.New(rand.NewSource(7))
				for epoch := 0; epoch < 4; epoch++ {
					applyRandomEpoch(t, dSerial, rngSerial)
					applyRandomEpoch(t, dPar, rngPar)
					sCounts, err := cSerial.Checkpoint()
					if err != nil {
						t.Fatalf("serial checkpoint: %v", err)
					}
					pCounts, err := cPar.Checkpoint()
					if err != nil {
						t.Fatalf("parallel checkpoint: %v", err)
					}
					if sCounts != pCounts {
						t.Fatalf("epoch %d: counts diverged: serial %+v, parallel %+v", epoch, sCounts, pCounts)
					}
					sSnap, err := cSerial.Backup().DumpMemory()
					if err != nil {
						t.Fatalf("DumpMemory: %v", err)
					}
					pSnap, err := cPar.Backup().DumpMemory()
					if err != nil {
						t.Fatalf("DumpMemory: %v", err)
					}
					if !bytes.Equal(sSnap.Bytes(), pSnap.Bytes()) {
						t.Fatalf("epoch %d: parallel backup differs from serial backup", epoch)
					}
					if !domainsEqual(t, dPar, cPar.Backup()) {
						t.Fatalf("epoch %d: parallel backup diverged from its primary", epoch)
					}
				}
			})
		}
	}
}

// TestParallelWorkerFaultRestoresUndo injects a copy-page fault that
// fires inside one of several concurrent copy workers and asserts the
// undo invariant still holds: capture completed across all shards
// before any worker wrote, so the backup (memory and disk) rewinds to
// the last clean checkpoint and a retry converges.
func TestParallelWorkerFaultRestoresUndo(t *testing.T) {
	h := hv.New(2*parallelTestPages + 8)
	inj := fault.NewInjector()
	h.InjectFaults(inj)
	d, err := h.CreateDomain("vm", parallelTestPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := newCkpt(h, d, cost.Full, 4)
	if err != nil {
		t.Fatalf("NewWithParams: %v", err)
	}
	defer c.Close()
	disk := vdisk.New(16)
	if err := c.AttachDisk(disk); err != nil {
		t.Fatalf("AttachDisk: %v", err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("clean checkpoint: %v", err)
	}
	preMem, err := c.Backup().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	preDisk := c.BackupDisk().Snapshot()

	// Dirty enough pages that all four workers get shards, plus a disk
	// block, then fail one copy call mid-commit.
	rng := rand.New(rand.NewSource(11))
	applyRandomEpoch(t, d, rng)
	if err := disk.WriteBlock(3, 0, []byte("epoch block")); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	inj.Fail(FaultCopyPage, inj.Calls(FaultCopyPage)+20, 1, false)
	if _, err := c.Checkpoint(); err == nil {
		t.Fatal("mid-commit worker fault did not fail the checkpoint")
	}

	postMem, err := c.Backup().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	if !bytes.Equal(preMem.Bytes(), postMem.Bytes()) {
		t.Fatal("backup memory inconsistent after failed parallel commit")
	}
	if !bytes.Equal(preDisk, c.BackupDisk().Snapshot()) {
		t.Fatal("backup disk inconsistent after failed parallel commit")
	}

	// The restored dirty logs make a plain retry converge.
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
	if !domainsEqual(t, d, c.Backup()) {
		t.Fatal("backup diverged after retried commit")
	}
	if !vdisk.Equal(disk, c.BackupDisk()) {
		t.Fatal("backup disk diverged after retried commit")
	}
}

// TestPipelinedRemoteConverges drives several epochs through the
// pipelined remote-replication path and asserts the bounded window is
// respected and that Close drains every in-flight shipment, leaving the
// remote byte-identical to the backup.
func TestPipelinedRemoteConverges(t *testing.T) {
	h := hv.New(4*parallelTestPages + 8)
	d, err := h.CreateDomain("vm", parallelTestPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := newCkpt(h, d, cost.Full, 4)
	if err != nil {
		t.Fatalf("NewWithParams: %v", err)
	}
	if err := c.EnableRemoteReplication([]byte("0123456789abcdef")); err != nil {
		t.Fatalf("EnableRemoteReplication: %v", err)
	}
	rng := rand.New(rand.NewSource(23))
	for epoch := 0; epoch < 6; epoch++ {
		applyRandomEpoch(t, d, rng)
		counts, err := c.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint %d: %v", epoch, err)
		}
		if counts.RemotePages == 0 {
			t.Fatalf("checkpoint %d: remote ship not enqueued", epoch)
		}
		rep := c.LastReport()
		if rep.RemoteInFlight > maxShipsInFlight {
			t.Fatalf("checkpoint %d: %d shipments in flight, window is %d",
				epoch, rep.RemoteInFlight, maxShipsInFlight)
		}
	}
	remote := c.Remote()
	backup := c.Backup()
	// Close drains the pipelined window before closing the conduits.
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !domainsEqual(t, backup, remote) {
		t.Fatal("remote backup did not converge to the local backup after Close")
	}
}

// TestPipelinedRemoteDegradesDeterministically injects a fatal send
// fault into the pipelined shipper and asserts replication degrades to
// local-only at exactly the commit that takes the failed shipment out of
// the window, without failing any local commit.
func TestPipelinedRemoteDegradesDeterministically(t *testing.T) {
	h := hv.New(4*domPages + 8)
	inj := fault.NewInjector()
	h.InjectFaults(inj)
	d, err := h.CreateDomain("vm", domPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := newCkpt(h, d, cost.Full, 4)
	if err != nil {
		t.Fatalf("NewWithParams: %v", err)
	}
	defer c.Close()
	if err := c.EnableRemoteReplication([]byte("0123456789abcdef")); err != nil {
		t.Fatalf("EnableRemoteReplication: %v", err)
	}
	doms0 := h.DomainCount()
	inj.FailNext(remus.FaultSend, 1, false)

	// Checkpoint 1 enqueues the doomed shipment; the local commit must
	// succeed regardless.
	if err := d.WritePhys(0, []byte("epoch one")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint 1: %v", err)
	}
	// The failed shipment leaves the full window at checkpoint
	// 1+maxShipsInFlight: that commit degrades, none before it — however
	// early the shipper hit the failure.
	degraded := false
	for i := 2; i <= 1+maxShipsInFlight; i++ {
		if degraded {
			t.Fatalf("degraded before checkpoint %d settled the failed shipment", 1+maxShipsInFlight)
		}
		if err := d.WritePhys(0, []byte{byte(i)}); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
		if _, err := c.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		degraded = c.LastReport().RemoteDegraded
	}
	if !degraded {
		t.Fatal("persistent pipelined ship failure never degraded replication")
	}
	if c.Remote() != nil {
		t.Fatal("remote still referenced after degradation")
	}
	if got := h.DomainCount(); got != doms0-1 {
		t.Fatalf("DomainCount = %d, want %d (remote domain not destroyed)", got, doms0-1)
	}
	// Local checkpointing carries on.
	if err := d.WritePhys(0, []byte("local-only")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after degradation: %v", err)
	}
	if !domainsEqual(t, d, c.Backup()) {
		t.Fatal("local backup diverged")
	}
}
