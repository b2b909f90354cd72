package checkpoint

import (
	"bytes"
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/remus"
	"repro/internal/vdisk"
)

// newFaultHV returns a hypervisor with an armed (empty) injector and a
// primary domain, plus the machine's free-frame count and domain count
// before any checkpointing resources exist.
func newFaultHV(t *testing.T, frames int) (*hv.Hypervisor, *hv.Domain, *fault.Injector, int, int) {
	t.Helper()
	h := hv.New(frames)
	inj := fault.NewInjector()
	h.InjectFaults(inj)
	d, err := h.CreateDomain("vm", domPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	// The initial sync copies only written pages: give it one to copy.
	if err := d.WritePhys(mem.PageSize+5, []byte("guest data")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	return h, d, inj, h.Machine().FreeFrames(), h.DomainCount()
}

// TestNewReleasesResourcesOnFailure covers the constructor leak: a
// failing premap, conduit, or initial sync used to leave the backup
// domain (and its machine frames) allocated with no handle left to
// destroy them.
func TestNewReleasesResourcesOnFailure(t *testing.T) {
	cases := []struct {
		name string
		opt  cost.Optimization
		site string
		n    int // 1-based occurrence to fail
	}{
		{name: "premap-primary", opt: cost.Full, site: hv.FaultMapPage, n: 1},
		{name: "premap-backup", opt: cost.Full, site: hv.FaultMapPage, n: domPages + 1},
		{name: "conduit", opt: cost.NoOpt, site: remus.FaultConduitNew, n: 1},
		{name: "initial-sync-copy", opt: cost.Full, site: FaultCopyPage, n: 1},
		{name: "initial-sync-socket", opt: cost.NoOpt, site: remus.FaultSend, n: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, d, inj, free0, doms0 := newFaultHV(t, 2*domPages+8)
			inj.Fail(tc.site, tc.n, 1, false)
			c, err := newCkpt(h, d, tc.opt, 1)
			if err == nil {
				c.Close()
				t.Fatalf("New survived an injected %s failure", tc.site)
			}
			if inj.Tripped(tc.site) == 0 {
				t.Fatalf("fault at %s never fired", tc.site)
			}
			if got := h.DomainCount(); got != doms0 {
				t.Fatalf("DomainCount = %d after failed New, want %d (backup leaked)", got, doms0)
			}
			if got := h.Machine().FreeFrames(); got != free0 {
				t.Fatalf("FreeFrames = %d after failed New, want %d (frames leaked)", got, free0)
			}
			// The primary is untouched: a retry must succeed.
			c, err = newCkpt(h, d, tc.opt, 1)
			if err != nil {
				t.Fatalf("retry New: %v", err)
			}
			defer c.Close()
			if !domainsEqual(t, d, c.Backup()) {
				t.Fatal("backup differs after retried construction")
			}
		})
	}
}

// TestEnableRemoteReplicationReleasesOnFailure covers the remote-domain
// leak: a failing conduit or initial remote sync used to strand the
// freshly created remote domain.
func TestEnableRemoteReplicationReleasesOnFailure(t *testing.T) {
	cases := []struct {
		name string
		site string
	}{
		{name: "conduit", site: remus.FaultConduitNew},
		{name: "initial-sync", site: remus.FaultSend},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, d, inj, _, _ := newFaultHV(t, 3*domPages+8)
			c, err := newCkpt(h, d, cost.Full, 1)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer c.Close()
			free0, doms0 := h.Machine().FreeFrames(), h.DomainCount()
			inj.FailNext(tc.site, 1, false)
			if err := c.EnableRemoteReplication([]byte("0123456789abcdef")); err == nil {
				t.Fatal("EnableRemoteReplication survived an injected failure")
			}
			if c.Remote() != nil {
				t.Fatal("remote domain still referenced after failed enable")
			}
			if got := h.DomainCount(); got != doms0 {
				t.Fatalf("DomainCount = %d, want %d (remote leaked)", got, doms0)
			}
			if got := h.Machine().FreeFrames(); got != free0 {
				t.Fatalf("FreeFrames = %d, want %d (frames leaked)", got, free0)
			}
			// Local checkpointing is unaffected.
			if err := d.WritePhys(0, []byte("still local")); err != nil {
				t.Fatalf("WritePhys: %v", err)
			}
			if _, err := c.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint after failed enable: %v", err)
			}
			if !domainsEqual(t, d, c.Backup()) {
				t.Fatal("local backup diverged")
			}
		})
	}
}

// TestPartialCommitUndoRestoresBackup drives the commit into a failure
// midway through the page-copy loop and asserts what staging guarantees
// without an undo log: the backup (memory and disk) is still
// byte-identical to the last clean checkpoint, and a retried commit
// converges.
func TestPartialCommitUndoRestoresBackup(t *testing.T) {
	h, d, inj, _, _ := newFaultHV(t, 2*domPages+8)
	c, err := newCkpt(h, d, cost.Full, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	disk := vdisk.New(16)
	if err := c.AttachDisk(disk); err != nil {
		t.Fatalf("AttachDisk: %v", err)
	}
	if err := disk.WriteBlock(2, 0, []byte("clean block")); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("clean checkpoint: %v", err)
	}
	preMem, err := c.Backup().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	preDisk := c.BackupDisk().Snapshot()

	// The "epoch": dirty four pages and one block, then fail the commit
	// after two pages have already been copied into the backup.
	for i := 0; i < 4; i++ {
		if err := d.WritePhys(uint64(i)*mem.PageSize, []byte{0xEE}); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
	}
	if err := disk.WriteBlock(2, 0, []byte("epoch block")); err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	inj.Fail(FaultCopyPage, inj.Calls(FaultCopyPage)+3, 1, false)
	if _, err := c.Checkpoint(); err == nil {
		t.Fatal("mid-commit fault did not fail the checkpoint")
	}

	// Nothing was published: the backup is the last clean snapshot.
	postMem, err := c.Backup().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	if !bytes.Equal(preMem.Bytes(), postMem.Bytes()) {
		t.Fatal("backup memory inconsistent after failed commit")
	}
	if !bytes.Equal(preDisk, c.BackupDisk().Snapshot()) {
		t.Fatal("backup disk inconsistent after failed commit")
	}

	// The dirty logs were restored too: a plain retry re-covers the
	// harvested pages and blocks and converges.
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
	if !domainsEqual(t, d, c.Backup()) {
		t.Fatal("backup memory diverged after retried commit")
	}
	if !vdisk.Equal(disk, c.BackupDisk()) {
		t.Fatal("backup disk diverged after retried commit")
	}
}

// TestCommitDegradesRemoteOnPersistentFailure: a fatal remote-ship
// failure must not fail the local commit; it downgrades replication to
// local-only and records the event.
func TestCommitDegradesRemoteOnPersistentFailure(t *testing.T) {
	h, d, inj, _, _ := newFaultHV(t, 3*domPages+8)
	c, err := newCkpt(h, d, cost.Full, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if err := c.EnableRemoteReplication([]byte("0123456789abcdef")); err != nil {
		t.Fatalf("EnableRemoteReplication: %v", err)
	}
	doms0 := h.DomainCount()
	if err := d.WritePhys(0, []byte("epoch")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	inj.FailNext(remus.FaultSend, 1, false)
	counts, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("local commit failed because of the remote: %v", err)
	}
	if counts.RemotePages != 0 {
		t.Fatalf("RemotePages = %d after degradation, want 0", counts.RemotePages)
	}
	rep := c.LastReport()
	if !rep.RemoteDegraded || len(rep.Warnings) == 0 {
		t.Fatalf("degradation not reported: %+v", rep)
	}
	if c.Remote() != nil {
		t.Fatal("remote still referenced after degradation")
	}
	if got := h.DomainCount(); got != doms0-1 {
		t.Fatalf("DomainCount = %d, want %d (remote domain not destroyed)", got, doms0-1)
	}
	// The local backup committed the epoch.
	if !domainsEqual(t, d, c.Backup()) {
		t.Fatal("local backup diverged")
	}
}

// TestCommitRetriesTransientRemoteFailures: transient ship failures are
// absorbed inside the commit and counted.
func TestCommitRetriesTransientRemoteFailures(t *testing.T) {
	h, d, inj, _, _ := newFaultHV(t, 3*domPages+8)
	c, err := newCkpt(h, d, cost.Full, 1)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Close()
	if err := c.EnableRemoteReplication([]byte("0123456789abcdef")); err != nil {
		t.Fatalf("EnableRemoteReplication: %v", err)
	}
	if err := d.WritePhys(0, []byte("epoch")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	inj.FailNext(remus.FaultSend, 2, true)
	counts, err := c.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	rep := c.LastReport()
	if rep.RemoteRetries != 2 || rep.RemoteDegraded {
		t.Fatalf("report = %+v, want 2 retries and no degradation", rep)
	}
	if counts.RemotePages == 0 {
		t.Fatal("remote ship not accounted after retries")
	}
	if !domainsEqual(t, d, c.Remote()) {
		t.Fatal("remote backup diverged")
	}
}
