package guestos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hv"
	"repro/internal/mem"
)

const testPages = 512

func bootTestGuest(t *testing.T, cfg BootConfig) *Guest {
	t.Helper()
	h := hv.New(testPages + 8)
	dom, err := h.CreateDomain("guest", testPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	g, err := Boot(dom, cfg)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	return g
}

func bootLinux(t *testing.T) *Guest {
	return bootTestGuest(t, BootConfig{Profile: LinuxProfile(), Seed: 42})
}

// readTaskList walks the circular task list directly from guest memory,
// mimicking what introspection does, and returns the comm names in
// list order (excluding the idle task).
func readTaskList(t *testing.T, g *Guest) []string {
	t.Helper()
	prof := g.Profile()
	head := g.Symbols()["init_task"]
	var names []string
	cur := head
	for i := 0; i < MaxTasks+2; i++ {
		next, err := g.readU64(g.KernelPA(cur) + uint64(prof.TaskOffNext))
		if err != nil {
			t.Fatalf("read next: %v", err)
		}
		if next == head {
			break
		}
		comm := make([]byte, prof.TaskCommLen)
		if err := g.Domain().ReadPhys(g.KernelPA(next)+uint64(prof.TaskOffComm), comm); err != nil {
			t.Fatalf("read comm: %v", err)
		}
		names = append(names, cstr(comm))
		cur = next
	}
	return names
}

func cstr(b []byte) string {
	if i := bytes.IndexByte(b, 0); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}

func TestBootWritesKernelStructures(t *testing.T) {
	g := bootLinux(t)
	prof := g.Profile()

	// Syscall table holds the known-good handlers.
	for _, i := range []int{0, 1, prof.NumSyscalls - 1} {
		v, err := g.readU64(g.Layout().SyscallTablePA + uint64(i*8))
		if err != nil {
			t.Fatalf("read syscall %d: %v", i, err)
		}
		if v != g.syscallHandlerVA(i) {
			t.Fatalf("syscall %d = %#x, want %#x", i, v, g.syscallHandlerVA(i))
		}
	}

	// init_task is a self-linked list head with the right magic.
	initPA := g.KernelPA(g.Symbols()["init_task"])
	magic, err := g.readU32(initPA)
	if err != nil {
		t.Fatalf("read magic: %v", err)
	}
	if magic != prof.TaskMagic {
		t.Fatalf("init_task magic = %#x, want %#x", magic, prof.TaskMagic)
	}
	if names := readTaskList(t, g); len(names) != 0 {
		t.Fatalf("fresh boot task list = %v, want empty", names)
	}

	// Default modules are linked.
	mods := countModules(t, g)
	if mods != len(defaultModules(Linux)) {
		t.Fatalf("module count = %d, want %d", mods, len(defaultModules(Linux)))
	}
}

func countModules(t *testing.T, g *Guest) int {
	t.Helper()
	prof := g.Profile()
	cur, err := g.readU64(g.Layout().GlobalsPA)
	if err != nil {
		t.Fatalf("read modules head: %v", err)
	}
	n := 0
	for cur != 0 && n <= MaxModules {
		n++
		cur, err = g.readU64(g.KernelPA(cur) + uint64(prof.ModuleOffNext))
		if err != nil {
			t.Fatalf("walk modules: %v", err)
		}
	}
	return n
}

func TestSystemMapFormat(t *testing.T) {
	g := bootLinux(t)
	sm := g.SystemMap()
	if !strings.Contains(sm, " T sys_call_table\n") || !strings.Contains(sm, " T init_task\n") {
		t.Fatalf("System.map missing symbols:\n%s", sm)
	}
	for _, line := range strings.Split(strings.TrimSpace(sm), "\n") {
		parts := strings.Fields(line)
		if len(parts) != 3 || len(parts[0]) != 16 {
			t.Fatalf("malformed System.map line %q", line)
		}
	}
	syms := g.Symbols()
	var names []string
	for n := range syms {
		names = append(names, n)
	}
	sort.Strings(names)
	var want strings.Builder
	for _, n := range names {
		fmt.Fprintf(&want, "%016x T %s\n", syms[n], n)
	}
	if sm != want.String() {
		t.Fatalf("System.map =\n%s\nwant\n%s", sm, want.String())
	}
}

func TestStartProcessLinksEverything(t *testing.T) {
	g := bootLinux(t)
	pid, err := g.StartProcess("nginx", 33, 8)
	if err != nil {
		t.Fatalf("StartProcess: %v", err)
	}
	if pid != 1 {
		t.Fatalf("pid = %d, want 1", pid)
	}
	pid2, err := g.StartProcess("worker", 33, 8)
	if err != nil {
		t.Fatalf("StartProcess: %v", err)
	}
	if names := readTaskList(t, g); !eqStrings(names, []string{"nginx", "worker"}) {
		t.Fatalf("task list = %v", names)
	}
	if got := g.Processes(); len(got) != 2 || got[0] != pid || got[1] != pid2 {
		t.Fatalf("Processes = %v", got)
	}
}

func TestExitProcessLeavesZombieBytes(t *testing.T) {
	g := bootLinux(t)
	pid, err := g.StartProcess("shortlived", 0, 4)
	if err != nil {
		t.Fatalf("StartProcess: %v", err)
	}
	p := g.procs[pid]
	slot := p.slot
	if err := g.ExitProcess(pid); err != nil {
		t.Fatalf("ExitProcess: %v", err)
	}
	if names := readTaskList(t, g); len(names) != 0 {
		t.Fatalf("task list after exit = %v", names)
	}
	// The slab record remains with zombie state and intact comm — the
	// evidence psscan-style heuristics recover.
	prof := g.Profile()
	pa := g.Layout().TaskSlabPA + uint64(slot*prof.TaskSize)
	state, err := g.readU32(pa + uint64(prof.TaskOffState))
	if err != nil {
		t.Fatalf("read state: %v", err)
	}
	if state != taskStateZombie {
		t.Fatalf("slab state = %d, want zombie", state)
	}
	comm := make([]byte, prof.TaskCommLen)
	if err := g.Domain().ReadPhys(pa+uint64(prof.TaskOffComm), comm); err != nil {
		t.Fatalf("read comm: %v", err)
	}
	if cstr(comm) != "shortlived" {
		t.Fatalf("zombie comm = %q", cstr(comm))
	}
	if _, err := g.Process(pid); !errors.Is(err, ErrNoProcess) {
		t.Fatalf("Process after exit: %v, want ErrNoProcess", err)
	}
}

func TestHideProcessUnlinksButKeepsHash(t *testing.T) {
	g := bootLinux(t)
	pid, err := g.StartProcess("rootkit", 0, 4)
	if err != nil {
		t.Fatalf("StartProcess: %v", err)
	}
	if err := g.HideProcess(pid); err != nil {
		t.Fatalf("HideProcess: %v", err)
	}
	if names := readTaskList(t, g); len(names) != 0 {
		t.Fatalf("task list shows hidden process: %v", names)
	}
	// Still reachable through the pid hash.
	bucket, err := g.readU64(g.hashBucketPA(pid))
	if err != nil {
		t.Fatalf("read bucket: %v", err)
	}
	found := false
	for cur := bucket; cur != 0; {
		p, err := g.readU32(g.KernelPA(cur) + uint64(g.Profile().TaskOffPID))
		if err != nil {
			t.Fatalf("read pid: %v", err)
		}
		if p == pid {
			found = true
			break
		}
		cur, err = g.readU64(g.KernelPA(cur) + uint64(g.Profile().TaskOffHashNext))
		if err != nil {
			t.Fatalf("walk hash: %v", err)
		}
	}
	if !found {
		t.Fatal("hidden process not in pid hash")
	}
	// Hidden processes are still alive.
	if _, err := g.Process(pid); err != nil {
		t.Fatalf("hidden process not alive: %v", err)
	}
}

func TestMallocPlacesCanary(t *testing.T) {
	g := bootLinux(t)
	pid, err := g.StartProcess("app", 1000, 8)
	if err != nil {
		t.Fatalf("StartProcess: %v", err)
	}
	va, err := g.Malloc(pid, 100)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	canaryPA, err := g.TranslateUser(pid, va+100)
	if err != nil {
		t.Fatalf("TranslateUser: %v", err)
	}
	got, err := g.readU64(canaryPA)
	if err != nil {
		t.Fatalf("read canary: %v", err)
	}
	if got != g.CanarySecret() {
		t.Fatalf("canary = %#x, want %#x", got, g.CanarySecret())
	}
	entries, err := g.ActiveCanaries()
	if err != nil {
		t.Fatalf("ActiveCanaries: %v", err)
	}
	if len(entries) != 1 || entries[0].PA != canaryPA || entries[0].Value != g.CanarySecret() {
		t.Fatalf("canary table = %+v", entries)
	}
}

func TestFreeRetiresCanaryAndReusesBlock(t *testing.T) {
	g := bootLinux(t)
	pid, _ := g.StartProcess("app", 0, 8)
	va1, err := g.Malloc(pid, 64)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if err := g.Free(pid, va1); err != nil {
		t.Fatalf("Free: %v", err)
	}
	entries, _ := g.ActiveCanaries()
	if len(entries) != 0 {
		t.Fatalf("canaries after free = %d, want 0", len(entries))
	}
	va2, err := g.Malloc(pid, 64)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if va2 != va1 {
		t.Fatalf("freed block not reused: %#x != %#x", va2, va1)
	}
	if err := g.Free(pid, va1); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := g.Free(pid, va1); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free: %v, want ErrBadFree", err)
	}
}

func TestOverflowCorruptsCanary(t *testing.T) {
	g := bootLinux(t)
	pid, _ := g.StartProcess("victim", 0, 8)
	va, err := g.Malloc(pid, 32)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	// In-bounds write: canary intact.
	if err := g.WriteUser(pid, va, bytes.Repeat([]byte{0x41}, 32)); err != nil {
		t.Fatalf("WriteUser: %v", err)
	}
	entries, _ := g.ActiveCanaries()
	v, _ := g.readU64(entries[0].PA)
	if v != g.CanarySecret() {
		t.Fatal("canary corrupted by in-bounds write")
	}
	// Overflow by 8 bytes: canary overwritten.
	if err := g.WriteUser(pid, va, bytes.Repeat([]byte{0x41}, 40)); err != nil {
		t.Fatalf("WriteUser overflow: %v", err)
	}
	v, _ = g.readU64(entries[0].PA)
	if v == g.CanarySecret() {
		t.Fatal("canary survived an overflow")
	}
}

func TestWriteUserOutsideRegion(t *testing.T) {
	g := bootLinux(t)
	pid, _ := g.StartProcess("app", 0, 4)
	if err := g.WriteUser(pid, 0x1000, []byte{1}); !errors.Is(err, ErrSegv) {
		t.Fatalf("write below region: %v, want ErrSegv", err)
	}
	limit := g.Profile().UserVirtBase + uint64(4+stackPages)*4096
	if err := g.WriteUser(pid, limit-1, []byte{1, 2}); !errors.Is(err, ErrSegv) {
		t.Fatalf("write across region end: %v, want ErrSegv", err)
	}
}

func TestSocketsAndFiles(t *testing.T) {
	g := bootLinux(t)
	pid, _ := g.StartProcess("malware", 0, 4)
	slot, err := g.OpenSocket(pid, [4]byte{104, 28, 18, 89}, 8080)
	if err != nil {
		t.Fatalf("OpenSocket: %v", err)
	}
	fslot, err := g.OpenFile(pid, `\Device\HarddiskVolume2\Users\root\Desktop\write_file.txt`)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	// Socket record parses back from guest memory.
	prof := g.Profile()
	sockPA := g.KernelPA(g.sockVA(slot))
	var ip [4]byte
	if err := g.Domain().ReadPhys(sockPA+uint64(prof.SockOffRemoteIP), ip[:]); err != nil {
		t.Fatalf("read remote ip: %v", err)
	}
	if ip != [4]byte{104, 28, 18, 89} {
		t.Fatalf("remote ip = %v", ip)
	}
	owner, _ := g.readU32(sockPA + uint64(prof.SockOffOwnerPID))
	if owner != pid {
		t.Fatalf("socket owner = %d, want %d", owner, pid)
	}
	if err := g.CloseSocket(slot); err != nil {
		t.Fatalf("CloseSocket: %v", err)
	}
	state, _ := g.readU32(sockPA + uint64(prof.SockOffState))
	if state != SockStateCloseWait {
		t.Fatalf("socket state = %d, want CLOSE_WAIT", state)
	}
	if err := g.CloseFile(fslot); err != nil {
		t.Fatalf("CloseFile: %v", err)
	}
	head, _ := g.readU64(g.Layout().GlobalsPA + 16)
	if head != 0 {
		t.Fatalf("file list head = %#x after close, want 0", head)
	}
}

func TestSyscallHijack(t *testing.T) {
	g := bootLinux(t)
	rogue := uint64(0xdeadbeefcafe)
	if err := g.HijackSyscall(11, rogue); err != nil {
		t.Fatalf("HijackSyscall: %v", err)
	}
	v, _ := g.readU64(g.Layout().SyscallTablePA + 11*8)
	if v != rogue {
		t.Fatalf("syscall 11 = %#x, want rogue %#x", v, rogue)
	}
	if err := g.HijackSyscall(9999, 1); err == nil {
		t.Fatal("out-of-range hijack succeeded")
	}
}

func TestOutputSinkReceivesOutputs(t *testing.T) {
	g := bootLinux(t)
	var sink recordingSink
	g.SetOutputSink(&sink)
	pid, _ := g.StartProcess("app", 0, 4)
	if err := g.SendPacket(pid, [4]byte{10, 0, 0, 1}, 80, []byte("GET /")); err != nil {
		t.Fatalf("SendPacket: %v", err)
	}
	if err := g.WriteDisk(pid, "/var/log/app.log", []byte("line")); err != nil {
		t.Fatalf("WriteDisk: %v", err)
	}
	if len(sink.pkts) != 1 || string(sink.pkts[0].Payload) != "GET /" {
		t.Fatalf("packets = %+v", sink.pkts)
	}
	if len(sink.disks) != 1 || sink.disks[0].Path != "/var/log/app.log" {
		t.Fatalf("disk writes = %+v", sink.disks)
	}
}

type recordingSink struct {
	pkts  []Packet
	disks []DiskWrite
}

func (r *recordingSink) SendPacket(p Packet)   { r.pkts = append(r.pkts, p) }
func (r *recordingSink) WriteDisk(d DiskWrite) { r.disks = append(r.disks, d) }

func TestEpochOpsRecording(t *testing.T) {
	g := bootLinux(t)
	g.BeginEpoch()
	pid, _ := g.StartProcess("app", 0, 4)
	va, _ := g.Malloc(pid, 16)
	_ = g.WriteUser(pid, va, []byte("hi"))
	ops := g.EpochOps()
	if len(ops) != 3 {
		t.Fatalf("got %d ops, want 3", len(ops))
	}
	if ops[0].Kind != OpProcStart || ops[1].Kind != OpHeapAlloc || ops[2].Kind != OpUserWrite {
		t.Fatalf("op kinds = %v %v %v", ops[0].Kind, ops[1].Kind, ops[2].Kind)
	}
	if ops[1].ResultVA != va {
		t.Fatalf("alloc result = %#x, want %#x", ops[1].ResultVA, va)
	}
	g.BeginEpoch()
	if len(g.EpochOps()) != 0 {
		t.Fatal("BeginEpoch did not clear the log")
	}
}

// The core determinism property behind rollback-and-replay: restore the
// checkpoint (memory + state) and re-apply the op log; the guest ends in
// a byte-identical memory state.
func TestReplayIsDeterministic(t *testing.T) {
	g := bootLinux(t)
	pid, err := g.StartProcess("app", 0, 8)
	if err != nil {
		t.Fatalf("StartProcess: %v", err)
	}

	// Checkpoint.
	snap, err := g.Domain().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	state := g.CloneState()

	// Epoch: a mix of operations, including an overflow.
	g.BeginEpoch()
	va, err := g.Malloc(pid, 48)
	if err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	if err := g.WriteUser(pid, va, bytes.Repeat([]byte{7}, 48)); err != nil {
		t.Fatalf("WriteUser: %v", err)
	}
	va2, _ := g.Malloc(pid, 16)
	if err := g.Free(pid, va2); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := g.WriteUser(pid, va, bytes.Repeat([]byte{9}, 56)); err != nil { // overflow
		t.Fatalf("WriteUser: %v", err)
	}
	_, _ = g.StartProcess("child", 0, 4)
	ops := g.EpochOps()

	after, err := g.Domain().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}

	// Roll back and replay.
	if err := g.Domain().RestoreMemory(snap, allPages(g.Domain())); err != nil {
		t.Fatalf("RestoreMemory: %v", err)
	}
	g.RestoreState(state)
	for _, op := range ops {
		if err := g.Replay(op); err != nil {
			t.Fatalf("Replay: %v", err)
		}
	}
	replayed, err := g.Domain().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	if !bytes.Equal(after.Bytes(), replayed.Bytes()) {
		t.Fatal("replayed memory differs from live epoch")
	}
}

// Property: for any sequence of alloc sizes, live allocations never
// overlap each other or their canaries.
func TestAllocNoOverlapProperty(t *testing.T) {
	g := bootLinux(t)
	pid, err := g.StartProcess("app", 0, 32)
	if err != nil {
		t.Fatalf("StartProcess: %v", err)
	}
	f := func(sizes []uint8) bool {
		type span struct{ lo, hi uint64 }
		var spans []span
		for _, s := range sizes {
			size := int(s)%200 + 1
			va, err := g.Malloc(pid, size)
			if err != nil {
				return errors.Is(err, ErrOutOfGuestMemory)
			}
			lo, hi := va, va+uint64(size)+CanarySize
			for _, sp := range spans {
				if lo < sp.hi && sp.lo < hi {
					return false
				}
			}
			spans = append(spans, span{lo, hi})
		}
		for _, sp := range spans {
			if err := g.Free(pid, sp.lo); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowsProfileBoot(t *testing.T) {
	g := bootTestGuest(t, BootConfig{Profile: WindowsProfile(), Seed: 7})
	pid, err := g.StartProcess("reg_read.exe", 500, 4)
	if err != nil {
		t.Fatalf("StartProcess: %v", err)
	}
	if names := readTaskList(t, g); !eqStrings(names, []string{"reg_read.exe"}) {
		t.Fatalf("task list = %v", names)
	}
	// Profiles differ: the same structures live at different offsets.
	lp, wp := LinuxProfile(), WindowsProfile()
	if lp.TaskMagic == wp.TaskMagic || lp.TaskOffComm == wp.TaskOffComm {
		t.Fatal("windows profile does not differ from linux")
	}
	_ = pid
}

func TestTaskSlabExhaustion(t *testing.T) {
	g := bootLinux(t)
	started := 0
	for i := 0; i < MaxTasks+4; i++ {
		_, err := g.StartProcess("p", 0, 1)
		if err != nil {
			if !errors.Is(err, ErrNoSlot) && !errors.Is(err, ErrOutOfGuestMemory) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		started++
	}
	if started == 0 || started > MaxTasks-1 {
		t.Fatalf("started %d processes", started)
	}
}

func TestCanaryTableParseViaDump(t *testing.T) {
	g := bootLinux(t)
	pid, _ := g.StartProcess("app", 0, 8)
	if _, err := g.Malloc(pid, 64); err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	snap, err := g.Domain().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	entries, err := ParseCanaryTable(g.Profile(), g.Layout(), func(pa uint64, buf []byte) error {
		return snap.ReadPhys(pa, buf)
	})
	if err != nil {
		t.Fatalf("ParseCanaryTable: %v", err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
}

func TestOpRIPRoundtrip(t *testing.T) {
	for _, seq := range []uint64{0, 1, 12345} {
		if got := SeqFromRIP(OpRIP(seq)); got != seq {
			t.Fatalf("SeqFromRIP(OpRIP(%d)) = %d", seq, got)
		}
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	g := bootLinux(t)
	pid, _ := g.StartProcess("app", 0, 4)
	before := g.Now()
	if err := g.Compute(pid, 100); err != nil {
		t.Fatalf("Compute: %v", err)
	}
	if g.Now() <= before {
		t.Fatal("Compute did not advance the virtual clock")
	}
}

func eqStrings(a, b []string) bool {
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

func TestMMRecordContents(t *testing.T) {
	g := bootLinux(t)
	pid, _ := g.StartProcess("app", 0, 8)
	p := g.procs[pid]
	prof := g.Profile()
	rec := make([]byte, prof.MMSize)
	if err := g.Domain().ReadPhys(g.KernelPA(g.mmVA(p.mmSlot)), rec); err != nil {
		t.Fatalf("read mm: %v", err)
	}
	heapStart := binary.LittleEndian.Uint64(rec[prof.MMOffHeapStart:])
	heapEnd := binary.LittleEndian.Uint64(rec[prof.MMOffHeapEnd:])
	if heapStart != prof.UserVirtBase || heapEnd != p.heapEnd {
		t.Fatalf("mm heap = [%#x,%#x), want [%#x,%#x)", heapStart, heapEnd, prof.UserVirtBase, p.heapEnd)
	}
}

// allPages lists every page of d, for restoring a whole snapshot.
func allPages(d *hv.Domain) []mem.PFN {
	pfns := make([]mem.PFN, d.Pages())
	for i := range pfns {
		pfns[i] = mem.PFN(i)
	}
	return pfns
}
