package guestos

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
)

// stackPages is the fixed per-process stack size.
const stackPages = 2

// Process is the Go-side bookkeeping for a guest process. The
// authoritative task record lives in guest memory; this tracks the
// pieces a kernel would keep in non-introspectable caches (allocator
// cursors, region placement). A *Process may be shared with States and
// other guests (see State), so callers must treat it as read-only.
type Process struct {
	PID      uint32
	UID      uint32
	Name     string
	slot     int
	mmSlot   int
	hidden   bool
	alive    bool
	started  uint64
	regionPg int // first guest-physical page of the region
	pages    int // region size in pages (heap + stack)

	heapBump   uint64 // next unallocated heap VA
	heapEnd    uint64
	freeBlocks []heapBlock
	allocs     map[uint64]allocInfo

	gen uint64 // generation of the guest that may write it in place
}

type heapBlock struct {
	va   uint64
	size int
}

type allocInfo struct {
	size      int
	canaryIdx int
}

// Processes returns the PIDs of all live processes in PID order.
func (g *Guest) Processes() []uint32 {
	out := make([]uint32, 0, len(g.procs))
	for pid, p := range g.procs {
		if p.alive {
			out = append(out, pid)
		}
	}
	sortU32(out)
	return out
}

func sortU32(s []uint32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Process returns a live or hidden process by PID.
func (g *Guest) Process(pid uint32) (*Process, error) {
	p, ok := g.procs[pid]
	if !ok || !p.alive {
		return nil, fmt.Errorf("pid %d: %w", pid, ErrNoProcess)
	}
	return p, nil
}

// TranslateUser converts a process user VA to guest-physical.
func (g *Guest) TranslateUser(pid uint32, va uint64) (uint64, error) {
	p, err := g.Process(pid)
	if err != nil {
		return 0, err
	}
	base := g.prof.UserVirtBase
	limit := base + uint64(p.pages)*mem.PageSize
	if va < base || va >= limit {
		return 0, fmt.Errorf("guestos: pid %d va %#x outside region [%#x,%#x): %w",
			pid, va, base, limit, ErrSegv)
	}
	return uint64(p.regionPg)*mem.PageSize + (va - base), nil
}

func (g *Guest) doStartProcess(name string, uid uint32, heapPages int) (uint32, error) {
	if heapPages <= 0 {
		heapPages = 8
	}
	slot, err := takeSlot(g.taskSlots[:])
	if err != nil {
		return 0, fmt.Errorf("start %q: task slab: %w", name, err)
	}
	return g.startProcessAt(name, uid, heapPages, slot)
}

func (g *Guest) startProcessAt(name string, uid uint32, heapPages, slot int) (uint32, error) {
	totalPages := heapPages + stackPages
	if g.nextFreePage+totalPages > g.dom.Pages() {
		g.taskSlots[slot] = false
		return 0, fmt.Errorf("start %q: need %d pages at page %d of %d: %w",
			name, totalPages, g.nextFreePage, g.dom.Pages(), ErrOutOfGuestMemory)
	}
	pid := g.nextPID
	g.nextPID++

	p := &Process{
		PID:      pid,
		UID:      uid,
		Name:     name,
		slot:     slot,
		mmSlot:   slot, // mm slab is indexed in lockstep with the task slab
		alive:    true,
		started:  g.now,
		regionPg: g.nextFreePage,
		pages:    totalPages,
		heapBump: g.prof.UserVirtBase,
		heapEnd:  g.prof.UserVirtBase + uint64(heapPages)*mem.PageSize,
		allocs:   make(map[uint64]allocInfo),
		gen:      g.gen,
	}
	g.nextFreePage += totalPages
	g.procs[pid] = p // registered before record writes so TranslateUser works

	for _, step := range []func(*Process) error{
		g.writeTaskRecord, g.linkTask, g.hashInsert, g.writeMMRecord, g.writeStackMarker,
	} {
		if err := step(p); err != nil {
			delete(g.procs, pid)
			g.taskSlots[slot] = false
			return 0, err
		}
	}
	return pid, nil
}

func (g *Guest) writeTaskRecord(p *Process) error {
	prof := g.prof
	task := make([]byte, prof.TaskSize)
	binary.LittleEndian.PutUint32(task[0:], prof.TaskMagic)
	binary.LittleEndian.PutUint32(task[prof.TaskOffPID:], p.PID)
	binary.LittleEndian.PutUint32(task[prof.TaskOffUID:], p.UID)
	binary.LittleEndian.PutUint32(task[prof.TaskOffState:], taskStateRunning)
	writeFixedString(task[prof.TaskOffComm:], p.Name, prof.TaskCommLen)
	binary.LittleEndian.PutUint64(task[prof.TaskOffMM:], g.mmVA(p.mmSlot))
	binary.LittleEndian.PutUint64(task[prof.TaskOffStart:], p.started)
	return g.dom.WritePhys(g.KernelPA(g.taskVA(p.slot)), task)
}

// linkTask inserts the task at the tail of the circular list (before
// init_task).
func (g *Guest) linkTask(p *Process) error {
	prof := g.prof
	headVA := g.taskVA(0)
	newVA := g.taskVA(p.slot)
	prevVA, err := g.readU64(g.KernelPA(headVA) + uint64(prof.TaskOffPrev))
	if err != nil {
		return err
	}
	// new.next = head; new.prev = prev; prev.next = new; head.prev = new
	if err := g.writeU64(g.KernelPA(newVA)+uint64(prof.TaskOffNext), headVA); err != nil {
		return err
	}
	if err := g.writeU64(g.KernelPA(newVA)+uint64(prof.TaskOffPrev), prevVA); err != nil {
		return err
	}
	if err := g.writeU64(g.KernelPA(prevVA)+uint64(prof.TaskOffNext), newVA); err != nil {
		return err
	}
	return g.writeU64(g.KernelPA(headVA)+uint64(prof.TaskOffPrev), newVA)
}

// unlinkTask removes the task from the circular list, leaving its bytes
// in the slab.
func (g *Guest) unlinkTask(p *Process) error {
	prof := g.prof
	va := g.taskVA(p.slot)
	next, err := g.readU64(g.KernelPA(va) + uint64(prof.TaskOffNext))
	if err != nil {
		return err
	}
	prev, err := g.readU64(g.KernelPA(va) + uint64(prof.TaskOffPrev))
	if err != nil {
		return err
	}
	if err := g.writeU64(g.KernelPA(prev)+uint64(prof.TaskOffNext), next); err != nil {
		return err
	}
	return g.writeU64(g.KernelPA(next)+uint64(prof.TaskOffPrev), prev)
}

func (g *Guest) hashBucketPA(pid uint32) uint64 {
	return g.layout.PIDHashPA + uint64(int(pid)%g.prof.PIDHashBuckets)*8
}

func (g *Guest) hashInsert(p *Process) error {
	bucketPA := g.hashBucketPA(p.PID)
	head, err := g.readU64(bucketPA)
	if err != nil {
		return err
	}
	va := g.taskVA(p.slot)
	if err := g.writeU64(g.KernelPA(va)+uint64(g.prof.TaskOffHashNext), head); err != nil {
		return err
	}
	return g.writeU64(bucketPA, va)
}

func (g *Guest) hashRemove(p *Process) error {
	prof := g.prof
	bucketPA := g.hashBucketPA(p.PID)
	target := g.taskVA(p.slot)
	cur, err := g.readU64(bucketPA)
	if err != nil {
		return err
	}
	if cur == target {
		next, err := g.readU64(g.KernelPA(target) + uint64(prof.TaskOffHashNext))
		if err != nil {
			return err
		}
		return g.writeU64(bucketPA, next)
	}
	for cur != 0 {
		nextPA := g.KernelPA(cur) + uint64(prof.TaskOffHashNext)
		next, err := g.readU64(nextPA)
		if err != nil {
			return err
		}
		if next == target {
			skip, err := g.readU64(g.KernelPA(target) + uint64(prof.TaskOffHashNext))
			if err != nil {
				return err
			}
			return g.writeU64(nextPA, skip)
		}
		cur = next
	}
	return nil // not hashed (already removed)
}

func (g *Guest) writeMMRecord(p *Process) error {
	prof := g.prof
	rec := make([]byte, prof.MMSize)
	binary.LittleEndian.PutUint32(rec[0:], prof.MMMagic)
	heapStart := prof.UserVirtBase
	binary.LittleEndian.PutUint64(rec[prof.MMOffHeapStart:], heapStart)
	binary.LittleEndian.PutUint64(rec[prof.MMOffHeapEnd:], p.heapEnd)
	stackLow := p.heapEnd
	stackHigh := stackLow + stackPages*mem.PageSize
	binary.LittleEndian.PutUint64(rec[prof.MMOffStackLow:], stackLow)
	binary.LittleEndian.PutUint64(rec[prof.MMOffStackHigh:], stackHigh)
	binary.LittleEndian.PutUint64(rec[prof.MMOffPhysBase:], uint64(p.regionPg)*mem.PageSize)
	return g.dom.WritePhys(g.KernelPA(g.mmVA(p.mmSlot)), rec)
}

// writeStackMarker writes a recognizable pattern at the top of the
// process stack, mirroring the stack residue psscan-style heuristics
// key on.
func (g *Guest) writeStackMarker(p *Process) error {
	stackTopVA := p.heapEnd + stackPages*mem.PageSize - 16
	pa, err := g.TranslateUser(p.PID, stackTopVA)
	if err != nil {
		return err
	}
	var marker [16]byte
	binary.LittleEndian.PutUint64(marker[0:], uint64(p.PID))
	binary.LittleEndian.PutUint64(marker[8:], 0x5354414B434B5F5F) // "__KCATS"
	return g.dom.WritePhys(pa, marker[:])
}

func (g *Guest) doExitProcess(pid uint32) error {
	p, err := g.writable(pid)
	if err != nil {
		return err
	}
	if !p.hidden {
		if err := g.unlinkTask(p); err != nil {
			return err
		}
	}
	if err := g.hashRemove(p); err != nil {
		return err
	}
	// Mark the slab record zombie; bytes remain as forensic evidence.
	statePA := g.KernelPA(g.taskVA(p.slot)) + uint64(g.prof.TaskOffState)
	if err := g.writeU32(statePA, taskStateZombie); err != nil {
		return err
	}
	// Retire the process's live canaries.
	for _, info := range p.allocs {
		if err := g.retireCanary(info.canaryIdx); err != nil {
			return err
		}
	}
	p.alive = false
	g.taskSlots[p.slot] = false
	return nil
}

func (g *Guest) doHideProcess(pid uint32) error {
	p, err := g.writable(pid)
	if err != nil {
		return err
	}
	if p.hidden {
		return nil
	}
	if err := g.unlinkTask(p); err != nil {
		return err
	}
	p.hidden = true
	return nil
}

func (g *Guest) doUnhideProcess(pid uint32) error {
	p, err := g.writable(pid)
	if err != nil {
		return err
	}
	if !p.hidden {
		return nil
	}
	if err := g.linkTask(p); err != nil {
		return err
	}
	p.hidden = false
	return nil
}

func (g *Guest) doCloakProcess(pid uint32) error {
	p, err := g.writable(pid)
	if err != nil {
		return err
	}
	if !p.hidden {
		if err := g.unlinkTask(p); err != nil {
			return err
		}
		p.hidden = true
	}
	return g.hashRemove(p)
}

func (g *Guest) doUserWrite(pid uint32, va uint64, data []byte) error {
	if g.memcheck {
		if err := g.checkWriteBounds(pid, va, len(data)); err != nil {
			return err
		}
	}
	pa, err := g.TranslateUser(pid, va)
	if err != nil {
		return err
	}
	// Also verify the end of the write stays in the region; like C, we
	// do NOT check heap allocation bounds.
	if _, err := g.TranslateUser(pid, va+uint64(len(data))-1); err != nil {
		return err
	}
	return g.dom.WritePhys(pa, data)
}

// ReadUser reads from a process's address space (used by tests and the
// guest agent).
func (g *Guest) ReadUser(pid uint32, va uint64, buf []byte) error {
	pa, err := g.TranslateUser(pid, va)
	if err != nil {
		return err
	}
	if _, err := g.TranslateUser(pid, va+uint64(len(buf))-1); err != nil {
		return err
	}
	return g.dom.ReadPhys(pa, buf)
}

// --- modules, sockets, files ----------------------------------------------

func (g *Guest) loadModule(name string, size int) (uint64, error) {
	slot, err := takeSlot(g.moduleSlots[:])
	if err != nil {
		return 0, fmt.Errorf("load module %q: %w", name, err)
	}
	prof := g.prof
	rec := make([]byte, prof.ModuleSize)
	binary.LittleEndian.PutUint32(rec[0:], prof.ModuleMagic)
	writeFixedString(rec[prof.ModuleOffName:], name, prof.ModuleNameLen)
	binary.LittleEndian.PutUint64(rec[prof.ModuleOffSize:], uint64(size))
	// Link at head of the module list.
	head, err := g.readU64(g.layout.GlobalsPA + 0)
	if err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint64(rec[prof.ModuleOffNext:], head)
	va := g.moduleVA(slot)
	if err := g.dom.WritePhys(g.KernelPA(va), rec); err != nil {
		return 0, err
	}
	if err := g.writeU64(g.layout.GlobalsPA+0, va); err != nil {
		return 0, err
	}
	return va, nil
}

// doHideModule unlinks the first module with the given name from the
// module list; the slab bytes remain as scannable evidence.
func (g *Guest) doHideModule(name string) error {
	prof := g.prof
	headPA := g.layout.GlobalsPA + 0
	prevPA := headPA
	cur, err := g.readU64(headPA)
	if err != nil {
		return err
	}
	for cur != 0 {
		comm := make([]byte, prof.ModuleNameLen)
		if err := g.dom.ReadPhys(g.KernelPA(cur)+uint64(prof.ModuleOffName), comm); err != nil {
			return err
		}
		if cstrBytes(comm) == name {
			next, err := g.readU64(g.KernelPA(cur) + uint64(prof.ModuleOffNext))
			if err != nil {
				return err
			}
			return g.writeU64(prevPA, next)
		}
		prevPA = g.KernelPA(cur) + uint64(prof.ModuleOffNext)
		cur, err = g.readU64(prevPA)
		if err != nil {
			return err
		}
	}
	return fmt.Errorf("guestos: hide module %q: not found", name)
}

func cstrBytes(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

// Socket connection states mirrored from TCP.
const (
	SockStateEstablished = 1
	SockStateCloseWait   = 2
)

func (g *Guest) doOpenSocket(pid uint32, remote [4]byte, port uint16) (int, error) {
	if _, err := g.Process(pid); err != nil {
		return 0, err
	}
	slot, err := takeSlot(g.sockSlots[:])
	if err != nil {
		return 0, fmt.Errorf("open socket: %w", err)
	}
	prof := g.prof
	rec := make([]byte, prof.SockSize)
	binary.LittleEndian.PutUint32(rec[0:], prof.SockMagic)
	binary.LittleEndian.PutUint32(rec[prof.SockOffProto:], 6) // TCP
	copy(rec[prof.SockOffLocalIP:], []byte{192, 168, 1, 76})
	binary.LittleEndian.PutUint32(rec[prof.SockOffLocalPort:], uint32(49000+slot))
	copy(rec[prof.SockOffRemoteIP:], remote[:])
	binary.LittleEndian.PutUint32(rec[prof.SockOffRemotePort:], uint32(port))
	binary.LittleEndian.PutUint32(rec[prof.SockOffState:], SockStateEstablished)
	binary.LittleEndian.PutUint32(rec[prof.SockOffOwnerPID:], pid)
	head, err := g.readU64(g.layout.GlobalsPA + 8)
	if err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint64(rec[prof.SockOffNext:], head)
	va := g.sockVA(slot)
	if err := g.dom.WritePhys(g.KernelPA(va), rec); err != nil {
		return 0, err
	}
	if err := g.writeU64(g.layout.GlobalsPA+8, va); err != nil {
		return 0, err
	}
	return slot, nil
}

func (g *Guest) doCloseSocket(slot int) error {
	if slot < 0 || slot >= MaxSockets || !g.sockSlots[slot] {
		return fmt.Errorf("close socket %d: %w", slot, ErrNoSlot)
	}
	statePA := g.KernelPA(g.sockVA(slot)) + uint64(g.prof.SockOffState)
	return g.writeU32(statePA, SockStateCloseWait)
}

func (g *Guest) doOpenFile(pid uint32, path string) (int, error) {
	if _, err := g.Process(pid); err != nil {
		return 0, err
	}
	slot, err := takeSlot(g.fileSlots[:])
	if err != nil {
		return 0, fmt.Errorf("open file %q: %w", path, err)
	}
	prof := g.prof
	rec := make([]byte, prof.FileSize)
	binary.LittleEndian.PutUint32(rec[0:], prof.FileMagic)
	binary.LittleEndian.PutUint32(rec[prof.FileOffOwnerPID:], pid)
	writeFixedString(rec[prof.FileOffPath:], path, prof.FilePathLen)
	head, err := g.readU64(g.layout.GlobalsPA + 16)
	if err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint64(rec[prof.FileOffNext:], head)
	va := g.fileVA(slot)
	if err := g.dom.WritePhys(g.KernelPA(va), rec); err != nil {
		return 0, err
	}
	if err := g.writeU64(g.layout.GlobalsPA+16, va); err != nil {
		return 0, err
	}
	return slot, nil
}

func (g *Guest) doCloseFile(slot int) error {
	if slot < 0 || slot >= MaxFiles || !g.fileSlots[slot] {
		return fmt.Errorf("close file %d: %w", slot, ErrNoSlot)
	}
	// Unlink from the file list.
	prof := g.prof
	target := g.fileVA(slot)
	headPA := g.layout.GlobalsPA + 16
	cur, err := g.readU64(headPA)
	if err != nil {
		return err
	}
	if cur == target {
		next, err := g.readU64(g.KernelPA(target) + uint64(prof.FileOffNext))
		if err != nil {
			return err
		}
		if err := g.writeU64(headPA, next); err != nil {
			return err
		}
	} else {
		for cur != 0 {
			nextPA := g.KernelPA(cur) + uint64(prof.FileOffNext)
			next, err := g.readU64(nextPA)
			if err != nil {
				return err
			}
			if next == target {
				skip, err := g.readU64(g.KernelPA(target) + uint64(prof.FileOffNext))
				if err != nil {
					return err
				}
				if err := g.writeU64(nextPA, skip); err != nil {
					return err
				}
				break
			}
			cur = next
		}
	}
	g.fileSlots[slot] = false
	return nil
}

func takeSlot(slots []bool) (int, error) {
	for i, used := range slots {
		if !used {
			slots[i] = true
			return i, nil
		}
	}
	return 0, ErrNoSlot
}
