package checkpoint

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/vdisk"
)

const domPages = 64

// newCkpt is the tests' shorthand for the one constructor.
func newCkpt(h *hv.Hypervisor, d *hv.Domain, opt cost.Optimization, workers int) (*Checkpointer, error) {
	return NewWithParams(h, d, Params{Opt: opt, Workers: workers})
}

func newPair(t *testing.T, opt cost.Optimization) (*hv.Hypervisor, *hv.Domain, *Checkpointer) {
	t.Helper()
	h := hv.New(2*domPages + 8)
	d, err := h.CreateDomain("vm", domPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := newCkpt(h, d, opt, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return h, d, c
}

func domainsEqual(t *testing.T, a, b *hv.Domain) bool {
	t.Helper()
	sa, err := a.DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	sb, err := b.DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	return bytes.Equal(sa.Bytes(), sb.Bytes())
}

func allOpts() []cost.Optimization {
	return []cost.Optimization{cost.NoOpt, cost.Memcpy, cost.Premap, cost.Full}
}

func TestInitialSyncEqualizesBackup(t *testing.T) {
	for _, opt := range allOpts() {
		t.Run(opt.String(), func(t *testing.T) {
			h := hv.New(2*domPages + 8)
			d, err := h.CreateDomain("vm", domPages)
			if err != nil {
				t.Fatalf("CreateDomain: %v", err)
			}
			// Pre-populate before the checkpointer exists.
			if err := d.WritePhys(5*mem.PageSize, []byte("pre-existing state")); err != nil {
				t.Fatalf("WritePhys: %v", err)
			}
			c, err := newCkpt(h, d, opt, 1)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer c.Close()
			if !domainsEqual(t, d, c.Backup()) {
				t.Fatal("backup differs after initial sync")
			}
		})
	}
}

func TestIncrementalCheckpoint(t *testing.T) {
	for _, opt := range allOpts() {
		t.Run(opt.String(), func(t *testing.T) {
			_, d, c := newPair(t, opt)
			if err := d.WritePhys(3*mem.PageSize+7, []byte("epoch data")); err != nil {
				t.Fatalf("WritePhys: %v", err)
			}
			if err := d.WritePhys(9*mem.PageSize, []byte("more")); err != nil {
				t.Fatalf("WritePhys: %v", err)
			}
			counts, err := c.Checkpoint()
			if err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if counts.DirtyPages != 2 {
				t.Fatalf("DirtyPages = %d, want 2", counts.DirtyPages)
			}
			if counts.BytesCopied != 2*mem.PageSize {
				t.Fatalf("BytesCopied = %d", counts.BytesCopied)
			}
			if counts.TotalPages != domPages {
				t.Fatalf("TotalPages = %d", counts.TotalPages)
			}
			if !domainsEqual(t, d, c.Backup()) {
				t.Fatal("backup differs after incremental checkpoint")
			}
		})
	}
}

func TestCheckpointWithNoDirtyPages(t *testing.T) {
	for _, opt := range allOpts() {
		t.Run(opt.String(), func(t *testing.T) {
			_, _, c := newPair(t, opt)
			counts, err := c.Checkpoint()
			if err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if counts.DirtyPages != 0 || counts.BytesCopied != 0 {
				t.Fatalf("counts = %+v, want zero dirty", counts)
			}
		})
	}
}

// Property: after any sequence of random writes and a checkpoint, the
// backup is byte-identical to the primary — for every optimization level.
func TestCheckpointConvergenceProperty(t *testing.T) {
	for _, opt := range allOpts() {
		t.Run(opt.String(), func(t *testing.T) {
			_, d, c := newPair(t, opt)
			f := func(seed int64, nWrites uint8) bool {
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < int(nWrites)%20+1; i++ {
					data := make([]byte, rng.Intn(3*mem.PageSize)+1)
					rng.Read(data)
					addr := uint64(rng.Intn(domPages*mem.PageSize - len(data)))
					if err := d.WritePhys(addr, data); err != nil {
						return false
					}
				}
				if _, err := c.Checkpoint(); err != nil {
					return false
				}
				return domainsEqual(t, d, c.Backup())
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRollbackRestoresPrimary(t *testing.T) {
	_, d, c := newPair(t, cost.Full)
	if err := d.WritePhys(0, []byte("clean")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// The "attack" epoch mutates the primary.
	if err := d.WritePhys(0, []byte("owned")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if err := c.Rollback(); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	buf := make([]byte, 5)
	if err := d.ReadPhys(0, buf); err != nil {
		t.Fatalf("ReadPhys: %v", err)
	}
	if string(buf) != "clean" {
		t.Fatalf("after rollback = %q, want %q", buf, "clean")
	}
	// The restored page stays dirty: the next checkpoint covers it and
	// the pages written since, not the whole guest.
	if err := d.WritePhys(5*mem.PageSize, []byte("later")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	counts, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint after rollback: %v", err)
	}
	if counts.DirtyPages != 2 {
		t.Fatalf("post-rollback commit covered %d pages, want 2 (the restored page and the one written since)", counts.DirtyPages)
	}
	if d.DirtyCount() != 0 {
		t.Fatalf("the commit left %d pages in the dirty log", d.DirtyCount())
	}
	if !domainsEqual(t, d, c.Backup()) {
		t.Fatal("backup differs from the primary after the post-rollback commit")
	}
}

func TestCheckpointAfterCloseFails(t *testing.T) {
	h := hv.New(2*domPages + 8)
	d, _ := h.CreateDomain("vm", domPages)
	c, err := newCkpt(h, d, cost.NoOpt, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := c.Checkpoint(); err == nil {
		t.Fatal("Checkpoint after Close succeeded")
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestBackupDoublesMemoryCost(t *testing.T) {
	h := hv.New(2*domPages + 8)
	free0 := h.Machine().FreeFrames()
	d, _ := h.CreateDomain("vm", domPages)
	c, err := newCkpt(h, d, cost.Full, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if used := free0 - h.Machine().FreeFrames(); used != 2*domPages {
		t.Fatalf("frames used = %d, want %d (primary + backup)", used, 2*domPages)
	}
}

func TestHypercallCountsReflectOptimizations(t *testing.T) {
	// No-opt and Memcpy must pay per-epoch mapping hypercalls; Premap
	// and Full must not.
	perEpochMaps := func(opt cost.Optimization) int {
		h := hv.New(2*domPages + 8)
		d, _ := h.CreateDomain("vm", domPages)
		c, err := newCkpt(h, d, opt, 1)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer c.Close()
		if err := d.WritePhys(0, []byte{1}); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
		h.ResetCalls()
		if _, err := c.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		return h.Calls().MapPage
	}
	if n := perEpochMaps(cost.NoOpt); n != 1 {
		t.Errorf("No-opt per-epoch maps = %d, want 1 (primary only)", n)
	}
	if n := perEpochMaps(cost.Memcpy); n != 2 {
		t.Errorf("Memcpy per-epoch maps = %d, want 2 (primary + backup)", n)
	}
	if n := perEpochMaps(cost.Premap); n != 0 {
		t.Errorf("Pre-map per-epoch maps = %d, want 0", n)
	}
	if n := perEpochMaps(cost.Full); n != 0 {
		t.Errorf("Full per-epoch maps = %d, want 0", n)
	}
}

func TestRemoteReplication(t *testing.T) {
	h := hv.New(3*domPages + 8)
	d, err := h.CreateDomain("vm", domPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	c, err := newCkpt(h, d, cost.Full, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if err := c.EnableRemoteReplication([]byte("0123456789abcdef")); err != nil {
		t.Fatalf("EnableRemoteReplication: %v", err)
	}
	if err := c.EnableRemoteReplication([]byte("0123456789abcdef")); err == nil {
		t.Fatal("double enable succeeded")
	}
	if err := d.WritePhys(7*mem.PageSize, []byte("ha + security")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	counts, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if counts.RemotePages != 1 {
		t.Fatalf("RemotePages = %d, want 1", counts.RemotePages)
	}
	// Local backup AND remote backup both match the primary.
	if !domainsEqual(t, d, c.Backup()) {
		t.Fatal("local backup diverged")
	}
	if !domainsEqual(t, d, c.Remote()) {
		t.Fatal("remote backup diverged")
	}
}

func TestRemoteReplicationCostsExtra(t *testing.T) {
	// The cost model prices remote HA on top of any local level: the
	// paper notes it "would incur minimal overhead on top of the cost
	// of Remus" — i.e. the socket cost returns.
	m := cost.Default()
	local, _ := m.Pause(cost.Full, cost.Counts{
		TotalPages: 1000, DirtyPages: 100, BytesCopied: 100 * mem.PageSize,
	}, cost.PauseCtx{})
	remote, _ := m.Pause(cost.Full, cost.Counts{
		TotalPages: 1000, DirtyPages: 100, BytesCopied: 100 * mem.PageSize,
		RemotePages: 100,
	}, cost.PauseCtx{})
	if remote.Copy <= local.Copy {
		t.Fatal("remote replication priced as free")
	}
}

func TestDiskCheckpointStandalone(t *testing.T) {
	h := hv.New(2*domPages + 8)
	d, _ := h.CreateDomain("vm", domPages)
	c, err := newCkpt(h, d, cost.Full, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	disk := vdisk.New(16)
	if err := c.AttachDisk(disk); err != nil {
		t.Fatalf("AttachDisk: %v", err)
	}
	if err := disk.WriteBlock(3, 0, []byte("payload")); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	counts, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if counts.DiskBlocks != 1 {
		t.Fatalf("DiskBlocks = %d, want 1", counts.DiskBlocks)
	}
	if !vdisk.Equal(disk, c.BackupDisk()) {
		t.Fatal("backup disk diverged")
	}
	// Tamper and roll back.
	if err := disk.WriteBlock(3, 0, []byte("TAMPER!")); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	if err := c.Rollback(); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	buf := make([]byte, 7)
	_ = disk.ReadBlock(3, buf)
	if string(buf) != "payload" {
		t.Fatalf("disk after rollback = %q", buf)
	}
}
