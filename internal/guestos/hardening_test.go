package guestos

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/hv"
	"repro/internal/vdisk"
)

func TestCanaryTableExhaustion(t *testing.T) {
	h := hv.New(300)
	dom, _ := h.CreateDomain("guest", 256)
	g, err := Boot(dom, BootConfig{Seed: 1, CanaryCapacity: 4})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	pid, err := g.StartProcess("app", 0, 8)
	if err != nil {
		t.Fatalf("StartProcess: %v", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := g.Malloc(pid, 16); err != nil {
			t.Fatalf("Malloc %d: %v", i, err)
		}
	}
	if _, err := g.Malloc(pid, 16); !errors.Is(err, ErrNoSlot) {
		t.Fatalf("malloc beyond canary capacity: %v, want ErrNoSlot", err)
	}
	// Freeing retires an entry; allocation works again.
	entries, _ := g.ActiveCanaries()
	var anyVA uint64
	p := g.procs[pid]
	for va := range p.allocs {
		anyVA = va
		break
	}
	_ = entries
	if err := g.Free(pid, anyVA); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if _, err := g.Malloc(pid, 16); err != nil {
		t.Fatalf("Malloc after free: %v", err)
	}
}

func TestSocketSlabExhaustion(t *testing.T) {
	h := hv.New(1060)
	dom, _ := h.CreateDomain("guest", 1024)
	g, err := Boot(dom, BootConfig{Seed: 1})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	pid, _ := g.StartProcess("srv", 0, 4)
	for i := 0; i < MaxSockets; i++ {
		if _, err := g.OpenSocket(pid, [4]byte{1, 1, 1, 1}, 80); err != nil {
			t.Fatalf("OpenSocket %d: %v", i, err)
		}
	}
	if _, err := g.OpenSocket(pid, [4]byte{1, 1, 1, 1}, 80); !errors.Is(err, ErrNoSlot) {
		t.Fatalf("socket beyond slab: %v, want ErrNoSlot", err)
	}
}

func TestBlockWriteWithoutDisk(t *testing.T) {
	h := hv.New(300)
	dom, _ := h.CreateDomain("guest", 256)
	g, err := Boot(dom, BootConfig{Seed: 1})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	pid, _ := g.StartProcess("db", 0, 4)
	if err := g.WriteBlock(pid, 0, 0, []byte{1}); err == nil {
		t.Fatal("block write without attached disk succeeded")
	}
	g.AttachDisk(vdisk.New(4))
	if err := g.WriteBlock(pid, 0, 0, []byte{1}); err != nil {
		t.Fatalf("block write with disk: %v", err)
	}
	if g.Disk().Writes() != 1 {
		t.Fatalf("disk writes = %d", g.Disk().Writes())
	}
}

func TestCloakProcessReplayDeterminism(t *testing.T) {
	h := hv.New(560)
	dom, _ := h.CreateDomain("guest", 512)
	g, err := Boot(dom, BootConfig{Seed: 9})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	snap, _ := dom.DumpMemory()
	state := g.CloneState()

	g.BeginEpoch()
	pid, err := g.StartProcess("rk", 0, 4)
	if err != nil {
		t.Fatalf("StartProcess: %v", err)
	}
	if err := g.CloakProcess(pid); err != nil {
		t.Fatalf("CloakProcess: %v", err)
	}
	ops := g.EpochOps()
	after, _ := dom.DumpMemory()

	_ = dom.RestoreMemory(snap, allPages(dom))
	g.RestoreState(state)
	for _, op := range ops {
		if err := g.Replay(op); err != nil {
			t.Fatalf("Replay: %v", err)
		}
	}
	replayed, _ := dom.DumpMemory()
	if !bytesEqual(after.Bytes(), replayed.Bytes()) {
		t.Fatal("cloak replay diverged")
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestExitedProcessOperationsFail(t *testing.T) {
	g := bootLinux(t)
	pid, _ := g.StartProcess("gone", 0, 4)
	va, _ := g.Malloc(pid, 16)
	if err := g.ExitProcess(pid); err != nil {
		t.Fatalf("ExitProcess: %v", err)
	}
	if _, err := g.Malloc(pid, 16); !errors.Is(err, ErrNoProcess) {
		t.Fatalf("Malloc on dead pid: %v", err)
	}
	if err := g.Free(pid, va); !errors.Is(err, ErrNoProcess) {
		t.Fatalf("Free on dead pid: %v", err)
	}
	if err := g.WriteUser(pid, va, []byte{1}); !errors.Is(err, ErrNoProcess) {
		t.Fatalf("WriteUser on dead pid: %v", err)
	}
	if err := g.ExitProcess(pid); !errors.Is(err, ErrNoProcess) {
		t.Fatalf("double exit: %v", err)
	}
}

func TestPIDHashChainRemoval(t *testing.T) {
	// Three processes hashing to the same bucket; removing the middle
	// one must preserve the chain.
	g := bootLinux(t)
	prof := g.Profile()
	var pids []uint32
	for i := 0; i < 3*prof.PIDHashBuckets; i++ {
		pid, err := g.StartProcess("p", 0, 1)
		if err != nil {
			t.Fatalf("StartProcess: %v", err)
		}
		pids = append(pids, pid)
	}
	// pids 1, 17, 33 share bucket 1 (16 buckets).
	samBucket := []uint32{pids[0], pids[prof.PIDHashBuckets], pids[2*prof.PIDHashBuckets]}
	if err := g.ExitProcess(samBucket[1]); err != nil {
		t.Fatalf("ExitProcess: %v", err)
	}
	// The other two remain reachable through the chain.
	found := map[uint32]bool{}
	cur, _ := g.readU64(g.hashBucketPA(samBucket[0]))
	for cur != 0 {
		pid, _ := g.readU32(g.KernelPA(cur) + uint64(prof.TaskOffPID))
		found[pid] = true
		cur, _ = g.readU64(g.KernelPA(cur) + uint64(prof.TaskOffHashNext))
	}
	if !found[samBucket[0]] || !found[samBucket[2]] {
		t.Fatalf("chain broken after middle removal: %v", found)
	}
	if found[samBucket[1]] {
		t.Fatal("removed pid still hashed")
	}
}

func TestMemcheckCatchesOverflowInline(t *testing.T) {
	g := bootLinux(t)
	g.SetMemcheck(true)
	pid, _ := g.StartProcess("asan-app", 0, 8)
	va, err := g.Malloc(pid, 32)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	// In-bounds write passes.
	if err := g.WriteUser(pid, va, make([]byte, 32)); err != nil {
		t.Fatalf("in-bounds write rejected: %v", err)
	}
	// The overflowing write is stopped BEFORE it corrupts the canary —
	// the AddressSanitizer zero-window behavior CRIMES trades against.
	err = g.WriteUser(pid, va, make([]byte, 40))
	if !errors.Is(err, ErrMemcheck) {
		t.Fatalf("overflow not caught inline: %v", err)
	}
	var viol *MemcheckViolationError
	if !errors.As(err, &viol) || viol.AllocVA != va || viol.AllocLen != 32 {
		t.Fatalf("violation details = %+v", viol)
	}
	entries, _ := g.ActiveCanaries()
	got, _ := g.readU64(entries[0].PA)
	if got != g.CanarySecret() {
		t.Fatal("canary corrupted despite inline check")
	}
	if g.MemcheckOps() == 0 {
		t.Fatal("no inline checks accounted")
	}
	// Interior (mid-object) overruns are caught too.
	if err := g.WriteUser(pid, va+16, make([]byte, 24)); !errors.Is(err, ErrMemcheck) {
		t.Fatalf("interior overflow not caught: %v", err)
	}
	// Disabled: the same write goes through (and corrupts the canary).
	g.SetMemcheck(false)
	if err := g.WriteUser(pid, va, make([]byte, 40)); err != nil {
		t.Fatalf("unchecked write rejected: %v", err)
	}
}

func TestMemcheckAllowsNonHeapWrites(t *testing.T) {
	g := bootLinux(t)
	g.SetMemcheck(true)
	pid, _ := g.StartProcess("app", 0, 4)
	// Stack-region write (top of the process region) is not guarded.
	stackVA := g.Profile().UserVirtBase + uint64(4+1)*4096
	if err := g.WriteUser(pid, stackVA, []byte("frame")); err != nil {
		t.Fatalf("stack write rejected: %v", err)
	}
}

func TestTraceSaveLoadReplay(t *testing.T) {
	h := hv.New(560)
	dom, _ := h.CreateDomain("guest", 512)
	g, err := Boot(dom, BootConfig{Seed: 31})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	snap, _ := dom.DumpMemory()
	state := g.CloneState()

	g.BeginEpoch()
	pid, _ := g.StartProcess("traced", 0, 8)
	va, _ := g.Malloc(pid, 32)
	_ = g.WriteUser(pid, va, []byte("recorded epoch"))
	_, _ = g.OpenSocket(pid, [4]byte{1, 2, 3, 4}, 443)
	after, _ := dom.DumpMemory()

	var buf bytes.Buffer
	if err := SaveOps(&buf, g.EpochOps()); err != nil {
		t.Fatalf("SaveOps: %v", err)
	}
	ops, err := LoadOps(&buf)
	if err != nil {
		t.Fatalf("LoadOps: %v", err)
	}
	if len(ops) != 4 {
		t.Fatalf("loaded %d ops, want 4", len(ops))
	}

	_ = dom.RestoreMemory(snap, allPages(dom))
	g.RestoreState(state)
	if err := g.ReplayAll(ops); err != nil {
		t.Fatalf("ReplayAll: %v", err)
	}
	replayed, _ := dom.DumpMemory()
	if !bytesEqual(after.Bytes(), replayed.Bytes()) {
		t.Fatal("trace replay diverged from the recorded epoch")
	}
}

func TestLoadOpsGarbage(t *testing.T) {
	if _, err := LoadOps(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage trace accepted")
	}
}

func TestReplayAllDivergenceReported(t *testing.T) {
	h := hv.New(560)
	dom, _ := h.CreateDomain("guest", 512)
	g, err := Boot(dom, BootConfig{Seed: 31})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	g.BeginEpoch()
	pid, _ := g.StartProcess("p", 0, 4)
	_, _ = g.Malloc(pid, 16)
	ops := g.EpochOps()
	// Replaying against the CURRENT state (not the checkpoint) diverges:
	// the next PID differs.
	if err := g.ReplayAll(ops); err == nil {
		t.Fatal("divergent replay not detected")
	}
}

func TestRegistryHive(t *testing.T) {
	g := bootLinux(t)
	keys, err := g.ReadRegistry()
	if err != nil {
		t.Fatalf("ReadRegistry: %v", err)
	}
	if len(keys) != 2 || keys[1].Path != "kernel.hostname" {
		t.Fatalf("default hive = %+v", keys)
	}
	if err := g.SetRegValue("kernel.panic", "10"); err != nil {
		t.Fatalf("SetRegValue: %v", err)
	}
	// Updating an existing key changes it in place.
	if err := g.SetRegValue("kernel.hostname", "renamed"); err != nil {
		t.Fatalf("SetRegValue update: %v", err)
	}
	keys, _ = g.ReadRegistry()
	if len(keys) != 3 {
		t.Fatalf("hive after update = %+v", keys)
	}
	found := map[string]string{}
	for _, k := range keys {
		found[k.Path] = k.Value
	}
	if found["kernel.hostname"] != "renamed" || found["kernel.panic"] != "10" {
		t.Fatalf("hive contents = %v", found)
	}
	// Oversized entries are rejected.
	long := make([]byte, 100)
	if err := g.SetRegValue("x", string(long)); err == nil {
		t.Fatal("oversized value accepted")
	}
}

func TestRegistryReplayDeterminism(t *testing.T) {
	h := hv.New(560)
	dom, _ := h.CreateDomain("guest", 512)
	g, err := Boot(dom, BootConfig{Seed: 5})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	snap, _ := dom.DumpMemory()
	state := g.CloneState()
	g.BeginEpoch()
	if err := g.SetRegValue("persist.flag", "1"); err != nil {
		t.Fatalf("SetRegValue: %v", err)
	}
	ops := g.EpochOps()
	after, _ := dom.DumpMemory()
	_ = dom.RestoreMemory(snap, allPages(dom))
	g.RestoreState(state)
	if err := g.ReplayAll(ops); err != nil {
		t.Fatalf("ReplayAll: %v", err)
	}
	replayed, _ := dom.DumpMemory()
	if !bytesEqual(after.Bytes(), replayed.Bytes()) {
		t.Fatal("registry replay diverged")
	}
}
