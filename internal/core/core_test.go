package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/guestfs"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/netbuf"
	"repro/internal/vdisk"
	"repro/internal/volatility"
	"repro/internal/workload"
)

const guestPages = 512

func newController(t *testing.T, prof *guestos.Profile, cfg Config) (*Controller, *netbuf.CollectDeliverer) {
	t.Helper()
	h := hv.New(2*guestPages + 16)
	dom, err := h.CreateDomain("guest", guestPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	g, err := guestos.Boot(dom, guestos.BootConfig{Profile: prof, Seed: 99})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	out := &netbuf.CollectDeliverer{}
	cfg.Deliverer = out
	ctl, err := New(h, g, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := ctl.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return ctl, out
}

func TestCleanEpochsCommitAndRelease(t *testing.T) {
	ctl, out := newController(t, guestos.LinuxProfile(), Config{
		EpochInterval: 50 * time.Millisecond,
		Modules:       detect.DefaultModules(),
	})
	var pid uint32
	for i := 0; i < 3; i++ {
		res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
			var err error
			if i == 0 {
				pid, err = g.StartProcess("app", 0, 8)
				if err != nil {
					return err
				}
			}
			if err := g.Compute(pid, 10); err != nil {
				return err
			}
			return g.SendPacket(pid, [4]byte{10, 0, 0, 1}, 80, []byte("hello"))
		})
		if err != nil {
			t.Fatalf("RunEpoch %d: %v", i, err)
		}
		if len(res.Findings) != 0 || res.Incident != nil {
			t.Fatalf("clean epoch produced findings: %+v", res.Findings)
		}
		if res.Phases.Total() <= 0 {
			t.Fatal("no pause time accounted")
		}
		if i == 0 && res.Counts.DirtyPages == 0 {
			t.Fatal("process creation dirtied no pages")
		}
	}
	pks, _ := out.Snapshot()
	if len(pks) != 3 {
		t.Fatalf("released %d packets, want 3", len(pks))
	}
	if ctl.Epoch() != 3 || ctl.Halted() {
		t.Fatalf("epoch=%d halted=%v", ctl.Epoch(), ctl.Halted())
	}
	if ctl.VirtualTime() <= 3*50*time.Millisecond {
		t.Fatalf("virtual time %v too small", ctl.VirtualTime())
	}
}

func TestOverflowIncidentEndToEnd(t *testing.T) {
	ctl, out := newController(t, guestos.LinuxProfile(), Config{
		EpochInterval:    50 * time.Millisecond,
		Modules:          detect.DefaultModules(),
		ReplayOnIncident: true,
	})

	// Epoch 1: benign setup.
	var pid uint32
	var bufVA uint64
	if _, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		var err error
		if pid, err = g.StartProcess("victim", 1000, 8); err != nil {
			return err
		}
		if bufVA, err = g.Malloc(pid, 64); err != nil {
			return err
		}
		return g.WriteUser(pid, bufVA, bytes.Repeat([]byte{0x20}, 64))
	}); err != nil {
		t.Fatalf("setup epoch: %v", err)
	}

	// Epoch 2: the attack — overflow by 16 bytes plus an exfiltration
	// attempt whose packet must never leave the system.
	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		if err := g.Compute(pid, 5); err != nil {
			return err
		}
		if err := g.WriteUser(pid, bufVA, bytes.Repeat([]byte{0x41}, 80)); err != nil {
			return err
		}
		return g.SendPacket(pid, [4]byte{6, 6, 6, 6}, 31337, []byte("stolen data"))
	})
	if err != nil {
		t.Fatalf("attack epoch: %v", err)
	}
	if res.Incident == nil {
		t.Fatal("attack not detected")
	}
	inc := res.Incident
	if len(inc.Findings) == 0 || inc.Findings[0].Kind != detect.KindBufferOverflow {
		t.Fatalf("findings = %+v", inc.Findings)
	}

	// Zero external impact: the exfiltration packet was discarded.
	pks, _ := out.Snapshot()
	for _, p := range pks {
		if string(p.Payload) == "stolen data" {
			t.Fatal("attack output escaped")
		}
	}
	if ctl.Buffer().Discarded() == 0 {
		t.Fatal("no outputs discarded")
	}

	// Replay pinpointed the exact overflowing write.
	if inc.Pinpoint == nil {
		t.Fatal("attack not pinpointed")
	}
	if inc.Pinpoint.Op.Kind != guestos.OpUserWrite || inc.Pinpoint.Op.VA != bufVA {
		t.Fatalf("pinpoint = %+v", inc.Pinpoint)
	}

	// Three dumps exist: last good, audit fail, at attack.
	if inc.Dumps.LastGood == nil || inc.Dumps.AuditFail == nil || inc.Dumps.AtAttack == nil {
		t.Fatal("missing dumps")
	}

	// The report mentions the pinpoint and the victim's memory map.
	text := inc.Report.Render()
	if !strings.Contains(text, "attack pinpointed by replay") {
		t.Fatalf("report missing pinpoint:\n%s", text)
	}
	if !strings.Contains(text, "Buffer Overflow") {
		t.Fatalf("report title wrong:\n%s", text)
	}

	// Timeline components are priced.
	tl := inc.Timeline
	if tl.AttackToEpochEnd <= 0 || tl.AttackToEpochEnd >= 50*time.Millisecond {
		t.Fatalf("AttackToEpochEnd = %v", tl.AttackToEpochEnd)
	}
	if tl.SuspendAndScan <= 0 || tl.ReplayReady <= tl.SuspendAndScan {
		t.Fatalf("timeline = %+v", tl)
	}

	// The controller is halted.
	if !ctl.Halted() {
		t.Fatal("controller not halted")
	}
	if _, err := ctl.RunEpoch(nil); !errors.Is(err, ErrHalted) {
		t.Fatalf("RunEpoch after incident: %v, want ErrHalted", err)
	}
}

func TestMalwareIncidentWindows(t *testing.T) {
	ctl, _ := newController(t, guestos.WindowsProfile(), Config{
		EpochInterval: 50 * time.Millisecond,
		Modules:       []detect.Module{detect.NewMalwareModule(nil)},
	})
	// Epoch 1: benign desktop.
	var deskPID uint32
	if _, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		var err error
		deskPID, err = g.StartProcess("explorer.exe", 500, 4)
		return err
	}); err != nil {
		t.Fatalf("epoch 1: %v", err)
	}
	_ = deskPID
	// Epoch 2: the malware starts, reads the registry, writes a file,
	// and opens a socket to its aggregation server.
	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		mpid, err := g.StartProcess("reg_read.exe", 500, 4)
		if err != nil {
			return err
		}
		if _, err := g.OpenSocket(mpid, [4]byte{104, 28, 18, 89}, 8080); err != nil {
			return err
		}
		if _, err := g.OpenFile(mpid, `\Device\HarddiskVolume2\Users\root\Desktop\write_file.txt`); err != nil {
			return err
		}
		return g.WriteDisk(mpid, `\Users\root\Desktop\write_file.txt`, []byte("registry contents"))
	})
	if err != nil {
		t.Fatalf("malware epoch: %v", err)
	}
	if res.Incident == nil {
		t.Fatal("malware not detected")
	}
	text := res.Incident.Report.Render()
	for _, want := range []string{
		"Malware detected:",
		"reg_read.exe",
		"104.28.18.89:8080",
		"write_file.txt",
		"Extracted executable image",
		`+ process "reg_read.exe"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q:\n%s", want, text)
		}
	}
	// Malware incidents need no replay (§5.6).
	if res.Incident.Pinpoint != nil {
		t.Fatal("unexpected replay for malware incident")
	}
}

func TestSyscallHijackDetected(t *testing.T) {
	ctl, _ := newController(t, guestos.LinuxProfile(), Config{
		Modules: []detect.Module{detect.SyscallModule{}},
	})
	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		return g.HijackSyscall(13, 0xEB11)
	})
	if err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	if res.Incident == nil || res.Findings[0].Kind != detect.KindSyscallHijack {
		t.Fatalf("res = %+v", res)
	}
}

func TestHiddenProcessDetected(t *testing.T) {
	ctl, _ := newController(t, guestos.LinuxProfile(), Config{
		Modules: []detect.Module{detect.HiddenProcessModule{}},
	})
	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		pid, err := g.StartProcess("rootkit", 0, 4)
		if err != nil {
			return err
		}
		return g.HideProcess(pid)
	})
	if err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	if res.Incident == nil || res.Findings[0].Kind != detect.KindHiddenProcess {
		t.Fatalf("res = %+v", res)
	}
	if !strings.Contains(res.Incident.Report.Render(), "psxview") {
		t.Fatal("report missing cross view")
	}
}

func TestBestEffortReleasesImmediately(t *testing.T) {
	ctl, out := newController(t, guestos.LinuxProfile(), Config{
		Safety:  netbuf.BestEffort,
		Modules: detect.DefaultModules(),
	})
	if _, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		pid, err := g.StartProcess("app", 0, 4)
		if err != nil {
			return err
		}
		if err := g.SendPacket(pid, [4]byte{1, 1, 1, 1}, 80, []byte("immediate")); err != nil {
			return err
		}
		// Visible before the epoch ends in best-effort mode.
		if pks, _ := out.Snapshot(); len(pks) != 1 {
			return errors.New("packet not released immediately")
		}
		return nil
	}); err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
}

func TestAsyncScanDetectsOneEpochLate(t *testing.T) {
	ctl, out := newController(t, guestos.WindowsProfile(), Config{
		Scan:    ScanAsync,
		Modules: []detect.Module{detect.NewMalwareModule(nil)},
	})
	// The malware epoch: with async scanning the audit of THIS epoch's
	// checkpoint happens after the buffer is released.
	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		pid, err := g.StartProcess("reg_read.exe", 500, 4)
		if err != nil {
			return err
		}
		return g.SendPacket(pid, [4]byte{104, 28, 18, 89}, 8080, []byte("leaked"))
	})
	if err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	if res.Incident == nil {
		t.Fatal("async scan did not detect malware")
	}
	// The weaker guarantee: the packet escaped.
	pks, _ := out.Snapshot()
	if len(pks) != 1 || string(pks[0].Payload) != "leaked" {
		t.Fatal("expected the attack packet to have been released in async mode")
	}
	if !strings.Contains(res.Incident.Report.Render(), "asynchronous scan") {
		t.Fatal("report missing async caveat")
	}
}

func TestHistoryDepth(t *testing.T) {
	ctl, _ := newController(t, guestos.LinuxProfile(), Config{
		Modules:      detect.DefaultModules(),
		HistoryDepth: 2,
	})
	var pid uint32
	for i := 0; i < 4; i++ {
		if _, err := ctl.RunEpoch(func(g *guestos.Guest) error {
			if pid == 0 {
				var err error
				pid, err = g.StartProcess("app", 0, 4)
				return err
			}
			return g.Compute(pid, 1)
		}); err != nil {
			t.Fatalf("RunEpoch %d: %v", i, err)
		}
	}
	hist := ctl.History()
	if len(hist) != 2 {
		t.Fatalf("history len = %d, want 2", len(hist))
	}
	if hist[0].Epoch != 3 || hist[1].Epoch != 4 {
		t.Fatalf("history epochs = %d,%d want 3,4", hist[0].Epoch, hist[1].Epoch)
	}
	if hist[0].Snapshot == nil || hist[0].State == nil {
		t.Fatal("history entry incomplete")
	}
}

func TestDefaultsApplied(t *testing.T) {
	ctl, _ := newController(t, guestos.LinuxProfile(), Config{})
	if ctl.cfg.EpochInterval != 200*time.Millisecond {
		t.Fatalf("default interval = %v", ctl.cfg.EpochInterval)
	}
	if ctl.cfg.Safety != netbuf.Synchronous || ctl.cfg.Scan != ScanSync || ctl.cfg.Opt != cost.Full {
		t.Fatalf("defaults = %+v", ctl.cfg)
	}
	if ctl.SetupTime() <= 0 {
		t.Fatal("setup time not accounted")
	}
}

func TestScanModeString(t *testing.T) {
	if ScanSync.String() != "sync" || ScanAsync.String() != "async" {
		t.Fatal("scan mode strings wrong")
	}
}

func TestDiskCheckpointAndRollback(t *testing.T) {
	ctl, _ := newController(t, guestos.LinuxProfile(), Config{
		EpochInterval:    50 * time.Millisecond,
		Modules:          detect.DefaultModules(),
		ReplayOnIncident: true,
		DiskBlocks:       32,
	})
	var pid uint32
	var bufVA uint64
	// Epoch 1: write durable data to the disk.
	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		var err error
		if pid, err = g.StartProcess("db", 0, 8); err != nil {
			return err
		}
		if bufVA, err = g.Malloc(pid, 64); err != nil {
			return err
		}
		return g.WriteBlock(pid, 5, 0, []byte("committed row"))
	})
	if err != nil {
		t.Fatalf("epoch 1: %v", err)
	}
	if res.Counts.DiskBlocks == 0 {
		t.Fatal("disk blocks not counted in checkpoint")
	}
	// Epoch 2: the attacker corrupts the disk AND overflows the heap.
	res, err = ctl.RunEpoch(func(g *guestos.Guest) error {
		if err := g.WriteBlock(pid, 5, 0, []byte("TAMPERED ROWS")); err != nil {
			return err
		}
		return g.WriteUser(pid, bufVA, bytes.Repeat([]byte{1}, 80))
	})
	if err != nil {
		t.Fatalf("epoch 2: %v", err)
	}
	if res.Incident == nil {
		t.Fatal("attack not detected")
	}
	// The backup disk still holds the clean committed row; replay
	// rolled the primary disk back and re-applied the epoch, so the
	// primary shows the replayed (tampered) state up to the attack
	// point, while the last-good backup is clean.
	buf := make([]byte, 13)
	if err := ctl.Checkpointer().BackupDisk().ReadBlock(5, buf); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	if string(buf) != "committed row" {
		t.Fatalf("backup disk = %q, want clean committed row", buf)
	}
}

func TestDiskStateSurvivesCleanEpochs(t *testing.T) {
	ctl, _ := newController(t, guestos.LinuxProfile(), Config{
		Modules:    detect.DefaultModules(),
		DiskBlocks: 8,
	})
	var pid uint32
	for i := 0; i < 3; i++ {
		if _, err := ctl.RunEpoch(func(g *guestos.Guest) error {
			if pid == 0 {
				var err error
				if pid, err = g.StartProcess("app", 0, 4); err != nil {
					return err
				}
			}
			return g.WriteBlock(pid, i, 0, []byte{byte(i + 1)})
		}); err != nil {
			t.Fatalf("epoch %d: %v", i, err)
		}
	}
	// Primary and backup disks agree on all committed writes.
	if !vdisk.Equal(ctl.Guest().Disk(), ctl.Checkpointer().BackupDisk()) {
		t.Fatal("backup disk diverged from primary after clean epochs")
	}
}

func TestOutputScanStopsExfiltration(t *testing.T) {
	ctl, out := newController(t, guestos.LinuxProfile(), Config{
		EpochInterval: 50 * time.Millisecond,
		Modules: []detect.Module{
			detect.NewOutputScanModule(nil, [][4]byte{{198, 51, 100, 7}}),
		},
	})
	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		pid, err := g.StartProcess("leaky", 0, 4)
		if err != nil {
			return err
		}
		if err := g.SendPacket(pid, [4]byte{8, 8, 8, 8}, 443, []byte("benign")); err != nil {
			return err
		}
		return g.SendPacket(pid, [4]byte{198, 51, 100, 7}, 8080, []byte("dump"))
	})
	if err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	if res.Incident == nil || res.Findings[0].Kind != detect.KindSuspiciousOutput {
		t.Fatalf("res = %+v", res)
	}
	// Both packets of the epoch were withheld: zero external impact.
	pks, _ := out.Snapshot()
	if len(pks) != 0 {
		t.Fatalf("packets escaped: %+v", pks)
	}
	if ctl.Buffer().Discarded() != 2 {
		t.Fatalf("Discarded = %d, want 2", ctl.Buffer().Discarded())
	}
}

func TestDetectorErrorFailsSafe(t *testing.T) {
	// A scan module error must abort the epoch WITHOUT committing or
	// releasing outputs (fail safe).
	ctl, out := newController(t, guestos.LinuxProfile(), Config{
		Modules: []detect.Module{failingModule{}},
	})
	_, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		pid, err := g.StartProcess("app", 0, 4)
		if err != nil {
			return err
		}
		return g.SendPacket(pid, [4]byte{1, 1, 1, 1}, 80, []byte("held"))
	})
	if err == nil {
		t.Fatal("module error did not abort the epoch")
	}
	pks, _ := out.Snapshot()
	if len(pks) != 0 {
		t.Fatal("outputs released despite failed audit machinery")
	}
}

type failingModule struct{}

func (failingModule) Name() string { return "broken" }
func (failingModule) Scan(*ScanContextAlias) ([]detect.Finding, error) {
	return nil, errors.New("scanner crashed")
}

// ScanContextAlias keeps the failingModule implementation readable.
type ScanContextAlias = detect.ScanContext

func TestDeepScanAsyncIntegration(t *testing.T) {
	// The deep psscan module is intended for asynchronous audits: a
	// fully cloaked process is invisible to the cross view but caught by
	// the async deep sweep one epoch later.
	ctl, _ := newController(t, guestos.LinuxProfile(), Config{
		Scan:    ScanAsync,
		Modules: []detect.Module{detect.DeepScanModule{}},
	})
	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		pid, err := g.StartProcess("ghostkit", 0, 4)
		if err != nil {
			return err
		}
		return g.CloakProcess(pid)
	})
	if err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	if res.Incident == nil || res.Findings[0].Name != "ghostkit" {
		t.Fatalf("deep async scan missed the cloaked process: %+v", res.Findings)
	}
}

func TestIncidentSaveDumps(t *testing.T) {
	ctl, _ := newController(t, guestos.LinuxProfile(), Config{
		EpochInterval:    20 * time.Millisecond,
		Modules:          detect.DefaultModules(),
		ReplayOnIncident: true,
	})
	var pid uint32
	var buf uint64
	if _, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		var err error
		if pid, err = g.StartProcess("v", 0, 8); err != nil {
			return err
		}
		buf, err = g.Malloc(pid, 16)
		return err
	}); err != nil {
		t.Fatalf("epoch 1: %v", err)
	}
	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		return g.WriteUser(pid, buf, bytes.Repeat([]byte{1}, 32))
	})
	if err != nil {
		t.Fatalf("epoch 2: %v", err)
	}
	dir := t.TempDir()
	paths, err := res.Incident.SaveDumps(dir)
	if err != nil {
		t.Fatalf("SaveDumps: %v", err)
	}
	if len(paths) != 3 {
		t.Fatalf("saved %d dumps, want 3", len(paths))
	}
	// Each saved dump loads and analyzes.
	for _, p := range paths {
		d, err := volatility.LoadFile(p)
		if err != nil {
			t.Fatalf("LoadFile(%s): %v", p, err)
		}
		if _, err := volatility.PsList(d); err != nil {
			t.Fatalf("PsList(%s): %v", p, err)
		}
	}
}

func TestMultiTenantIsolation(t *testing.T) {
	// Multiple VMs under CRIMES on one host ("today's clouds run many
	// thousands of VMs", §2): an incident in one tenant must not affect
	// another tenant's epochs or outputs.
	h := hv.New(4*guestPages + 32)
	newTenant := func(name string) (*Controller, *netbuf.CollectDeliverer) {
		dom, err := h.CreateDomain(name, guestPages)
		if err != nil {
			t.Fatalf("CreateDomain: %v", err)
		}
		g, err := guestos.Boot(dom, guestos.BootConfig{Seed: int64(len(name))})
		if err != nil {
			t.Fatalf("Boot: %v", err)
		}
		out := &netbuf.CollectDeliverer{}
		ctl, err := New(h, g, Config{
			EpochInterval: 20 * time.Millisecond,
			Modules:       detect.DefaultModules(),
			Deliverer:     out,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		t.Cleanup(func() { _ = ctl.Close() })
		return ctl, out
	}
	victim, _ := newTenant("tenant-a")
	healthy, healthyOut := newTenant("tenant-b")

	// Tenant A is attacked.
	var pid uint32
	var buf uint64
	if _, err := victim.RunEpoch(func(g *guestos.Guest) error {
		var err error
		if pid, err = g.StartProcess("v", 0, 8); err != nil {
			return err
		}
		buf, err = g.Malloc(pid, 16)
		return err
	}); err != nil {
		t.Fatalf("tenant-a epoch: %v", err)
	}
	res, err := victim.RunEpoch(func(g *guestos.Guest) error {
		return g.WriteUser(pid, buf, bytes.Repeat([]byte{1}, 32))
	})
	if err != nil {
		t.Fatalf("tenant-a attack epoch: %v", err)
	}
	if res.Incident == nil || !victim.Halted() {
		t.Fatal("tenant-a attack not detected")
	}

	// Tenant B keeps running cleanly on the same hypervisor.
	for i := 0; i < 3; i++ {
		res, err := healthy.RunEpoch(func(g *guestos.Guest) error {
			bpid, err := g.StartProcess(fmt.Sprintf("svc-%d", i), 0, 4)
			if err != nil {
				return err
			}
			return g.SendPacket(bpid, [4]byte{10, 0, 0, 2}, 80, []byte("ok"))
		})
		if err != nil {
			t.Fatalf("tenant-b epoch %d: %v", i, err)
		}
		if res.Incident != nil {
			t.Fatal("tenant-b falsely implicated")
		}
	}
	pks, _ := healthyOut.Snapshot()
	if len(pks) != 3 {
		t.Fatalf("tenant-b released %d packets, want 3", len(pks))
	}
}

func TestFilesystemTamperingRolledBack(t *testing.T) {
	// An attacker wipes the audit log on disk in the same epoch as the
	// detected overflow; rollback restores the file, and disk forensics
	// on the primary (post-replay) still recovers the deleted inode.
	ctl, _ := newController(t, guestos.LinuxProfile(), Config{
		EpochInterval:    50 * time.Millisecond,
		Modules:          detect.DefaultModules(),
		ReplayOnIncident: true,
		DiskBlocks:       64,
	})
	var pid uint32
	var bufVA uint64
	var dev guestfs.GuestDev
	// Epoch 1: set up the filesystem and the audit log.
	if _, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		var err error
		if pid, err = g.StartProcess("auditd", 0, 8); err != nil {
			return err
		}
		if bufVA, err = g.Malloc(pid, 32); err != nil {
			return err
		}
		dev = guestfs.GuestDev{G: g, PID: pid}
		fs, err := guestfs.Mkfs(dev, 8)
		if err != nil {
			return err
		}
		if err := fs.Create("/var/log/audit.log", 0, g.Now()); err != nil {
			return err
		}
		return fs.WriteFile("/var/log/audit.log", []byte("attacker ip 203.0.113.9 logged in"), g.Now())
	}); err != nil {
		t.Fatalf("setup epoch: %v", err)
	}
	// Epoch 2: the attack — wipe the log, then overflow.
	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		fs, err := guestfs.Mount(dev)
		if err != nil {
			return err
		}
		if err := fs.Delete("/var/log/audit.log"); err != nil {
			return err
		}
		return g.WriteUser(pid, bufVA, bytes.Repeat([]byte{1}, 48))
	})
	if err != nil {
		t.Fatalf("attack epoch: %v", err)
	}
	if res.Incident == nil {
		t.Fatal("attack not detected")
	}
	// The last-good backup disk still holds the intact log.
	backupFS, err := guestfs.Mount(ctl.Checkpointer().BackupDisk())
	if err != nil {
		t.Fatalf("mount backup disk: %v", err)
	}
	content, err := backupFS.ReadFile("/var/log/audit.log")
	if err != nil {
		t.Fatalf("read audit log from backup: %v", err)
	}
	if !strings.Contains(string(content), "203.0.113.9") {
		t.Fatalf("backup log content = %q", content)
	}
	// Replay reproduced the wipe on the primary; disk forensics still
	// recovers the deleted inode and its contents.
	entries, err := guestfs.ScanInodes(ctl.Guest().Disk())
	if err != nil {
		t.Fatalf("ScanInodes: %v", err)
	}
	foundDeleted := false
	for _, e := range entries {
		if e.Name == "/var/log/audit.log" && e.Deleted {
			foundDeleted = true
		}
	}
	if !foundDeleted {
		t.Fatalf("deleted log not recoverable: %+v", entries)
	}
	recovered, err := guestfs.RecoverDeleted(ctl.Guest().Disk(), "/var/log/audit.log")
	if err != nil {
		t.Fatalf("RecoverDeleted: %v", err)
	}
	if !strings.Contains(string(recovered), "203.0.113.9") {
		t.Fatalf("recovered = %q", recovered)
	}
}

func TestOutputScanCatchesRegistryExfil(t *testing.T) {
	// Defense in depth: even WITHOUT the blacklist, the output scan
	// catches the malware's exfiltration because the buffered packet
	// carries the registry dump signature.
	ctl, out := newController(t, guestos.WindowsProfile(), Config{
		EpochInterval: 50 * time.Millisecond,
		Modules:       []detect.Module{detect.NewOutputScanModule(nil, nil)},
	})
	res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
		_, err := workload.InjectMalware(g)
		return err
	})
	if err != nil {
		t.Fatalf("RunEpoch: %v", err)
	}
	if res.Incident == nil || res.Findings[0].Kind != detect.KindSuspiciousOutput {
		t.Fatalf("output scan missed the exfil: %+v", res.Findings)
	}
	pks, _ := out.Snapshot()
	if len(pks) != 0 {
		t.Fatal("registry dump escaped")
	}
}
