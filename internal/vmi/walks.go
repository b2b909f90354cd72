package vmi

import (
	"encoding/binary"
	"fmt"
)

// ProcessInfo is one parsed task record.
type ProcessInfo struct {
	TaskVA    uint64
	PID       uint32
	UID       uint32
	State     uint32
	Name      string
	StartTime uint64
}

// ModuleInfo is one parsed kernel module record.
type ModuleInfo struct {
	VA   uint64
	Name string
	Size uint64
}

// SocketInfo is one parsed socket record.
type SocketInfo struct {
	VA         uint64
	Proto      uint32
	LocalIP    [4]byte
	LocalPort  uint16
	RemoteIP   [4]byte
	RemotePort uint16
	State      uint32
	OwnerPID   uint32
}

// FileInfo is one parsed open-file-handle record.
type FileInfo struct {
	VA       uint64
	OwnerPID uint32
	Path     string
}

// readTask parses one task record at a kernel VA.
func (c *Context) readTask(va uint64) (ProcessInfo, error) {
	p := c.prof
	rec := c.scratchBuf(p.TaskSize)
	if err := c.ReadVA(va, rec); err != nil {
		return ProcessInfo{}, err
	}
	if binary.LittleEndian.Uint32(rec[0:]) != p.TaskMagic {
		return ProcessInfo{}, fmt.Errorf("task at %#x has bad magic: %w", va, ErrCorruptList)
	}
	return ProcessInfo{
		TaskVA:    va,
		PID:       binary.LittleEndian.Uint32(rec[p.TaskOffPID:]),
		UID:       binary.LittleEndian.Uint32(rec[p.TaskOffUID:]),
		State:     binary.LittleEndian.Uint32(rec[p.TaskOffState:]),
		Name:      CStr(rec[p.TaskOffComm : p.TaskOffComm+p.TaskCommLen]),
		StartTime: binary.LittleEndian.Uint64(rec[p.TaskOffStart:]),
	}, nil
}

// ProcessList walks the kernel's circular task list from init_task —
// LibVMI's process-list example and the paper's primary "unaided" scan.
// The idle task itself is excluded. With a walk memo attached, the walk
// is re-run only when a page it touched was dirtied since the last run.
func (c *Context) ProcessList() ([]ProcessInfo, error) {
	return memoized(c, "process-list", (*Context).processList)
}

// ProcessListView is ProcessList without the copy: with a walk memo
// attached, a hit returns the memo's own slice, which the caller must
// not modify. It is for scans that only read the list, so that a clean
// epoch's audit allocates nothing for it.
func (c *Context) ProcessListView() ([]ProcessInfo, error) {
	return memoShared(c, "process-list", (*Context).processList)
}

func (c *Context) processList() ([]ProcessInfo, error) {
	head, err := c.Symbol("init_task")
	if err != nil {
		return nil, err
	}
	var out []ProcessInfo
	cur := head
	for i := 0; i < maxListNodes; i++ {
		next, err := c.readU64VA(cur + uint64(c.prof.TaskOffNext))
		if err != nil {
			return nil, fmt.Errorf("vmi process-list: %w", err)
		}
		if next == head {
			return out, nil
		}
		c.stats.NodesWalked++
		info, err := c.readTask(next)
		if err != nil {
			return nil, fmt.Errorf("vmi process-list: %w", err)
		}
		out = append(out, info)
		cur = next
	}
	return nil, fmt.Errorf("vmi process-list: no terminator after %d nodes: %w", maxListNodes, ErrCorruptList)
}

// PIDHashList collects processes by walking every pid-hash bucket chain.
// Rootkits that unlink a task from the task list usually remain here;
// comparing the two views is linux_psxview's core idea.
func (c *Context) PIDHashList() ([]ProcessInfo, error) {
	return memoized(c, "pid-hash", (*Context).pidHashList)
}

// PIDHashListView is PIDHashList without the copy, on the terms of
// ProcessListView.
func (c *Context) PIDHashListView() ([]ProcessInfo, error) {
	return memoShared(c, "pid-hash", (*Context).pidHashList)
}

func (c *Context) pidHashList() ([]ProcessInfo, error) {
	base, err := c.Symbol("pid_hash")
	if err != nil {
		return nil, err
	}
	var out []ProcessInfo
	for b := 0; b < c.prof.PIDHashBuckets; b++ {
		cur, err := c.readU64VA(base + uint64(b*8))
		if err != nil {
			return nil, fmt.Errorf("vmi pid-hash bucket %d: %w", b, err)
		}
		for i := 0; cur != 0 && i < maxListNodes; i++ {
			c.stats.NodesWalked++
			info, err := c.readTask(cur)
			if err != nil {
				return nil, fmt.Errorf("vmi pid-hash bucket %d: %w", b, err)
			}
			out = append(out, info)
			cur, err = c.readU64VA(cur + uint64(c.prof.TaskOffHashNext))
			if err != nil {
				return nil, fmt.Errorf("vmi pid-hash bucket %d: %w", b, err)
			}
		}
	}
	return out, nil
}

// ModuleList walks the loaded-module list — LibVMI's module-list example.
func (c *Context) ModuleList() ([]ModuleInfo, error) {
	return memoized(c, "module-list", (*Context).moduleList)
}

func (c *Context) moduleList() ([]ModuleInfo, error) {
	headPtr, err := c.Symbol("modules")
	if err != nil {
		return nil, err
	}
	cur, err := c.readU64VA(headPtr)
	if err != nil {
		return nil, fmt.Errorf("vmi module-list: %w", err)
	}
	p := c.prof
	var out []ModuleInfo
	for i := 0; cur != 0 && i < maxListNodes; i++ {
		c.stats.NodesWalked++
		rec := c.scratchBuf(p.ModuleSize)
		if err := c.ReadVA(cur, rec); err != nil {
			return nil, fmt.Errorf("vmi module-list: %w", err)
		}
		if binary.LittleEndian.Uint32(rec[0:]) != p.ModuleMagic {
			return nil, fmt.Errorf("vmi module-list: node %#x bad magic: %w", cur, ErrCorruptList)
		}
		out = append(out, ModuleInfo{
			VA:   cur,
			Name: CStr(rec[p.ModuleOffName : p.ModuleOffName+p.ModuleNameLen]),
			Size: binary.LittleEndian.Uint64(rec[p.ModuleOffSize:]),
		})
		cur = binary.LittleEndian.Uint64(rec[p.ModuleOffNext:])
	}
	return out, nil
}

// SyscallTable reads the full syscall handler table.
func (c *Context) SyscallTable() ([]uint64, error) {
	return memoized(c, "syscall-table", (*Context).syscallTable)
}

func (c *Context) syscallTable() ([]uint64, error) {
	base, err := c.Symbol("sys_call_table")
	if err != nil {
		return nil, err
	}
	raw := c.scratchBuf(c.prof.NumSyscalls * 8)
	if err := c.ReadVA(base, raw); err != nil {
		return nil, fmt.Errorf("vmi syscall-table: %w", err)
	}
	out := make([]uint64, c.prof.NumSyscalls)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(raw[i*8:])
	}
	return out, nil
}

// SyscallMismatch reports one hijacked syscall table entry.
type SyscallMismatch struct {
	Index int
	Got   uint64
	Want  uint64
}

// CheckSyscallIntegrity compares the live syscall table against the
// known-good copy captured at Preprocess time.
func (c *Context) CheckSyscallIntegrity() ([]SyscallMismatch, error) {
	if c.goodSyscalls == nil {
		return nil, fmt.Errorf("vmi: syscall integrity: preprocessing has not run")
	}
	cur, err := memoShared(c, "syscall-table", (*Context).syscallTable)
	if err != nil {
		return nil, err
	}
	var out []SyscallMismatch
	for i, v := range cur {
		if v != c.goodSyscalls[i] {
			out = append(out, SyscallMismatch{Index: i, Got: v, Want: c.goodSyscalls[i]})
		}
	}
	return out, nil
}

// Sockets walks the kernel socket list.
func (c *Context) Sockets() ([]SocketInfo, error) {
	headPtr, err := c.Symbol("socket_list")
	if err != nil {
		return nil, err
	}
	cur, err := c.readU64VA(headPtr)
	if err != nil {
		return nil, fmt.Errorf("vmi sockets: %w", err)
	}
	p := c.prof
	var out []SocketInfo
	for i := 0; cur != 0 && i < maxListNodes; i++ {
		c.stats.NodesWalked++
		rec := c.scratchBuf(p.SockSize)
		if err := c.ReadVA(cur, rec); err != nil {
			return nil, fmt.Errorf("vmi sockets: %w", err)
		}
		if binary.LittleEndian.Uint32(rec[0:]) != p.SockMagic {
			return nil, fmt.Errorf("vmi sockets: node %#x bad magic: %w", cur, ErrCorruptList)
		}
		s := SocketInfo{
			VA:         cur,
			Proto:      binary.LittleEndian.Uint32(rec[p.SockOffProto:]),
			LocalPort:  uint16(binary.LittleEndian.Uint32(rec[p.SockOffLocalPort:])),
			RemotePort: uint16(binary.LittleEndian.Uint32(rec[p.SockOffRemotePort:])),
			State:      binary.LittleEndian.Uint32(rec[p.SockOffState:]),
			OwnerPID:   binary.LittleEndian.Uint32(rec[p.SockOffOwnerPID:]),
		}
		copy(s.LocalIP[:], rec[p.SockOffLocalIP:])
		copy(s.RemoteIP[:], rec[p.SockOffRemoteIP:])
		out = append(out, s)
		cur = binary.LittleEndian.Uint64(rec[p.SockOffNext:])
	}
	return out, nil
}

// FileHandles walks the kernel open-file list.
func (c *Context) FileHandles() ([]FileInfo, error) {
	headPtr, err := c.Symbol("file_list")
	if err != nil {
		return nil, err
	}
	cur, err := c.readU64VA(headPtr)
	if err != nil {
		return nil, fmt.Errorf("vmi files: %w", err)
	}
	p := c.prof
	var out []FileInfo
	for i := 0; cur != 0 && i < maxListNodes; i++ {
		c.stats.NodesWalked++
		rec := c.scratchBuf(p.FileSize)
		if err := c.ReadVA(cur, rec); err != nil {
			return nil, fmt.Errorf("vmi files: %w", err)
		}
		if binary.LittleEndian.Uint32(rec[0:]) != p.FileMagic {
			return nil, fmt.Errorf("vmi files: node %#x bad magic: %w", cur, ErrCorruptList)
		}
		out = append(out, FileInfo{
			VA:       cur,
			OwnerPID: binary.LittleEndian.Uint32(rec[p.FileOffOwnerPID:]),
			Path:     CStr(rec[p.FileOffPath : p.FileOffPath+p.FilePathLen]),
		})
		cur = binary.LittleEndian.Uint64(rec[p.FileOffNext:])
	}
	return out, nil
}

// MMInfo is a parsed memory descriptor (mm_struct / VAD root analogue).
type MMInfo struct {
	HeapStart uint64
	HeapEnd   uint64
	StackLow  uint64
	StackHigh uint64
	PhysBase  uint64 // guest-physical base of the process region
}

// MemMap reads a process's memory descriptor through its task record —
// what Volatility's linux_proc_maps uses to enumerate mappings.
func (c *Context) MemMap(taskVA uint64) (MMInfo, error) {
	p := c.prof
	mmVA, err := c.readU64VA(taskVA + uint64(p.TaskOffMM))
	if err != nil {
		return MMInfo{}, fmt.Errorf("vmi memmap: %w", err)
	}
	if mmVA == 0 {
		return MMInfo{}, fmt.Errorf("vmi memmap: task %#x has no mm", taskVA)
	}
	rec := c.scratchBuf(p.MMSize)
	if err := c.ReadVA(mmVA, rec); err != nil {
		return MMInfo{}, fmt.Errorf("vmi memmap: %w", err)
	}
	if binary.LittleEndian.Uint32(rec[0:]) != p.MMMagic {
		return MMInfo{}, fmt.Errorf("vmi memmap: mm at %#x bad magic: %w", mmVA, ErrCorruptList)
	}
	return MMInfo{
		HeapStart: binary.LittleEndian.Uint64(rec[p.MMOffHeapStart:]),
		HeapEnd:   binary.LittleEndian.Uint64(rec[p.MMOffHeapEnd:]),
		StackLow:  binary.LittleEndian.Uint64(rec[p.MMOffStackLow:]),
		StackHigh: binary.LittleEndian.Uint64(rec[p.MMOffStackHigh:]),
		PhysBase:  binary.LittleEndian.Uint64(rec[p.MMOffPhysBase:]),
	}, nil
}

// RegKeyInfo is one parsed registry hive entry.
type RegKeyInfo struct {
	VA    uint64
	Path  string
	Value string
}

// Registry walks the guest's configuration hive via the registry_hive
// symbol (Volatility's printkey analogue).
func (c *Context) Registry() ([]RegKeyInfo, error) {
	headPtr, err := c.Symbol("registry_hive")
	if err != nil {
		return nil, err
	}
	cur, err := c.readU64VA(headPtr)
	if err != nil {
		return nil, fmt.Errorf("vmi registry: %w", err)
	}
	var out []RegKeyInfo
	for i := 0; cur != 0 && i < maxListNodes; i++ {
		c.stats.NodesWalked++
		// Record layout mirrors guestos: path at +8 (64 bytes), value
		// at +72 (64 bytes), next at +136.
		rec := c.scratchBuf(144)
		if err := c.ReadVA(cur, rec); err != nil {
			return nil, fmt.Errorf("vmi registry: %w", err)
		}
		out = append(out, RegKeyInfo{
			VA:    cur,
			Path:  CStr(rec[8 : 8+64]),
			Value: CStr(rec[72 : 72+64]),
		})
		cur = binary.LittleEndian.Uint64(rec[136:])
	}
	return out, nil
}
