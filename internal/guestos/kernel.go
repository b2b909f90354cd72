package guestos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/hv"
	"repro/internal/vdisk"
)

var (
	// ErrNoProcess is returned for operations on unknown PIDs.
	ErrNoProcess = errors.New("guestos: no such process")
	// ErrNoSlot is returned when a kernel slab is full.
	ErrNoSlot = errors.New("guestos: kernel slab full")
	// ErrOutOfGuestMemory is returned when a process region cannot fit.
	ErrOutOfGuestMemory = errors.New("guestos: out of guest memory")
	// ErrBadFree is returned for frees of unallocated heap addresses.
	ErrBadFree = errors.New("guestos: free of unallocated address")
	// ErrSegv is returned for user accesses outside a process's region.
	ErrSegv = errors.New("guestos: segmentation violation")
)

// BootConfig configures a guest kernel.
type BootConfig struct {
	Profile        *Profile
	CanaryCapacity int   // canary-table entries; default 2048
	Seed           int64 // deterministic boot entropy (canary secret)
	Modules        []string
}

// Guest is a booted guest kernel inside a domain. It is the authority
// for all guest state, which it maintains as binary records in guest
// physical memory (the domain), plus minimal Go-side bookkeeping that is
// snapshot/restored alongside domain memory checkpoints.
type Guest struct {
	dom    *hv.Domain
	prof   *Profile
	layout Layout

	canarySecret uint64
	now          uint64 // virtual nanoseconds, advanced by ops

	nextPID      uint32
	nextFreePage int
	procs        map[uint32]*Process // shared copy-on-write with States
	gen          uint64              // ownership generation; see writable
	taskSlots    [MaxTasks]bool
	moduleSlots  [MaxModules]bool
	sockSlots    [MaxSockets]bool
	fileSlots    [MaxFiles]bool
	regSlots     [MaxRegKeys]bool
	canaryHint   int

	opSeq    uint64
	epochOps []Op
	outputs  OutputSink
	disk     *vdisk.Disk

	memcheck    bool
	memcheckOps uint64
}

// Boot initializes a guest kernel inside the domain: lays out and writes
// all kernel structures into guest memory and creates the idle task.
func Boot(dom *hv.Domain, cfg BootConfig) (*Guest, error) {
	if cfg.Profile == nil {
		cfg.Profile = LinuxProfile()
	}
	if cfg.CanaryCapacity <= 0 {
		cfg.CanaryCapacity = 2048
	}
	layout, err := computeLayout(cfg.Profile, dom.Pages(), cfg.CanaryCapacity)
	if err != nil {
		return nil, err
	}
	g := &Guest{
		dom:          dom,
		prof:         cfg.Profile,
		layout:       layout,
		nextPID:      1,
		nextFreePage: layout.FirstFreePage,
		procs:        make(map[uint32]*Process),
	}
	g.newGeneration()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g.canarySecret = rng.Uint64() | 1 // never zero

	if err := g.writeBootStructures(cfg.Modules); err != nil {
		return nil, fmt.Errorf("boot %s: %w", cfg.Profile.KernelName, err)
	}
	return g, nil
}

// Adopt attaches a guest kernel to a domain that already holds a booted
// kernel's memory image — a promoted Remus replica after a host
// failover — reconstructing the Go-side bookkeeping from a state
// snapshot instead of re-running boot (which would clobber the
// replicated memory). cfg must match the original guest's BootConfig:
// the same profile, canary capacity, and seed, so the re-derived canary
// secret agrees with the canaries already written into guest memory and
// detector audits keep passing across the failover.
func Adopt(dom *hv.Domain, cfg BootConfig, st *State) (*Guest, error) {
	if cfg.Profile == nil {
		cfg.Profile = LinuxProfile()
	}
	if cfg.CanaryCapacity <= 0 {
		cfg.CanaryCapacity = 2048
	}
	if st == nil {
		return nil, errors.New("guestos: adopt requires a state snapshot")
	}
	layout, err := computeLayout(cfg.Profile, dom.Pages(), cfg.CanaryCapacity)
	if err != nil {
		return nil, err
	}
	g := &Guest{
		dom:    dom,
		prof:   cfg.Profile,
		layout: layout,
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g.canarySecret = rng.Uint64() | 1 // same derivation as Boot
	g.RestoreState(st)
	return g, nil
}

// Domain returns the domain the guest runs in.
func (g *Guest) Domain() *hv.Domain { return g.dom }

// Profile returns the guest's kernel profile.
func (g *Guest) Profile() *Profile { return g.prof }

// Layout returns the kernel's physical layout.
func (g *Guest) Layout() Layout { return g.layout }

// CanarySecret returns the boot-time random canary value. The guest
// agent shares it with the hypervisor-side scan module (it is generated
// outside the attacker's control, §2 Threat Model).
func (g *Guest) CanarySecret() uint64 { return g.canarySecret }

// Now returns the guest's virtual clock in nanoseconds.
func (g *Guest) Now() uint64 { return g.now }

// AttachDisk attaches a virtual block device to the guest. The disk is
// replicated VM state: CRIMES checkpoints and rolls it back together
// with memory (the paper's disk-snapshot extension, §3.1).
func (g *Guest) AttachDisk(d *vdisk.Disk) { g.disk = d }

// Disk returns the attached block device, or nil.
func (g *Guest) Disk() *vdisk.Disk { return g.disk }

// SetOutputSink installs the sink that receives the guest's external
// outputs (network packets, disk writes). CRIMES points this at its
// output buffer; the analyzer points it at a discard sink during replay.
func (g *Guest) SetOutputSink(s OutputSink) { g.outputs = s }

// KernelVA converts a guest-physical address to a kernel virtual
// address via the linear map.
func (g *Guest) KernelVA(pa uint64) uint64 { return pa + g.prof.KernelVirtBase }

// KernelPA converts a kernel virtual address back to guest-physical.
func (g *Guest) KernelPA(va uint64) uint64 { return va - g.prof.KernelVirtBase }

func (g *Guest) writeBootStructures(modules []string) error {
	p := g.prof
	// Syscall table: synthetic handler addresses.
	buf := make([]byte, p.NumSyscalls*8)
	for i := 0; i < p.NumSyscalls; i++ {
		binary.LittleEndian.PutUint64(buf[i*8:], g.syscallHandlerVA(i))
	}
	if err := g.dom.WritePhys(g.layout.SyscallTablePA, buf); err != nil {
		return err
	}
	// Canary table header: {count=0, capacity}.
	hdr := make([]byte, canaryHeaderSize)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(g.layout.CanaryCapacity))
	if err := g.dom.WritePhys(g.layout.CanaryTablePA, hdr); err != nil {
		return err
	}
	// Idle/init task in slot 0: the circular task list head.
	initVA := g.taskVA(0)
	g.taskSlots[0] = true
	task := make([]byte, p.TaskSize)
	binary.LittleEndian.PutUint32(task[0:], p.TaskMagic)
	binary.LittleEndian.PutUint32(task[p.TaskOffPID:], 0)
	binary.LittleEndian.PutUint32(task[p.TaskOffState:], taskStateRunning)
	writeFixedString(task[p.TaskOffComm:], idleTaskName(p.OS), p.TaskCommLen)
	binary.LittleEndian.PutUint64(task[p.TaskOffNext:], initVA)
	binary.LittleEndian.PutUint64(task[p.TaskOffPrev:], initVA)
	if err := g.dom.WritePhys(g.KernelPA(initVA), task); err != nil {
		return err
	}
	// Built-in kernel modules.
	if modules == nil {
		modules = defaultModules(p.OS)
	}
	for _, name := range modules {
		if _, err := g.loadModule(name, 16384); err != nil {
			return err
		}
	}
	// Default configuration hive.
	for _, kv := range defaultRegistry(p.OS) {
		if err := g.doSetRegValue(kv[0], []byte(kv[1])); err != nil {
			return err
		}
	}
	return nil
}

func defaultRegistry(os OSKind) [][2]string {
	if os == Windows {
		return [][2]string{
			{`HKLM\SOFTWARE\Microsoft\Windows NT\ProductName`, "Windows 7 Professional"},
			{`HKLM\SYSTEM\ControlSet001\Services\Tcpip\Hostname`, "DESKTOP-CRIMES"},
			{`HKLM\SOFTWARE\Corp\LicenseKey`, "XQ2M9-77KEY-SECRT-00042"},
		}
	}
	return [][2]string{
		{"kernel.hostname", "crimes-guest"},
		{"net.ipv4.ip_forward", "0"},
	}
}

// syscallHandlerVA is the known-good handler address for syscall i.
func (g *Guest) syscallHandlerVA(i int) uint64 {
	return g.prof.KernelVirtBase + 0x100000 + uint64(i)*0x40
}

func idleTaskName(os OSKind) string {
	if os == Windows {
		return "System"
	}
	return "swapper"
}

func defaultModules(os OSKind) []string {
	if os == Windows {
		return []string{"ntoskrnl", "tcpip", "ndis", "crimesagent"}
	}
	return []string{"ext4", "e1000", "nf_conntrack", "crimes_agent"}
}

const (
	taskStateFree    = 0
	taskStateRunning = 1
	taskStateZombie  = 2
)

func (g *Guest) taskVA(slot int) uint64 {
	return g.KernelVA(g.layout.TaskSlabPA + uint64(slot*g.prof.TaskSize))
}

func (g *Guest) moduleVA(slot int) uint64 {
	return g.KernelVA(g.layout.ModuleSlabPA + uint64(slot*g.prof.ModuleSize))
}

func (g *Guest) sockVA(slot int) uint64 {
	return g.KernelVA(g.layout.SockSlabPA + uint64(slot*g.prof.SockSize))
}

func (g *Guest) fileVA(slot int) uint64 {
	return g.KernelVA(g.layout.FileSlabPA + uint64(slot*g.prof.FileSize))
}

func (g *Guest) mmVA(slot int) uint64 {
	return g.KernelVA(g.layout.MMSlabPA + uint64(slot*g.prof.MMSize))
}

// --- low-level guest memory helpers -------------------------------------

func (g *Guest) readU32(pa uint64) (uint32, error) {
	var b [4]byte
	if err := g.dom.ReadPhys(pa, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func (g *Guest) writeU32(pa uint64, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return g.dom.WritePhys(pa, b[:])
}

func (g *Guest) readU64(pa uint64) (uint64, error) {
	var b [8]byte
	if err := g.dom.ReadPhys(pa, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func (g *Guest) writeU64(pa uint64, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return g.dom.WritePhys(pa, b[:])
}

func writeFixedString(dst []byte, s string, n int) {
	for i := 0; i < n; i++ {
		dst[i] = 0
	}
	copy(dst[:n], s)
}

// --- symbols -------------------------------------------------------------

// Symbols returns the kernel symbol table: name to kernel VA.
func (g *Guest) Symbols() map[string]uint64 {
	l := g.layout
	return map[string]uint64{
		"sys_call_table":      g.KernelVA(l.SyscallTablePA),
		"init_task":           g.taskVA(0),
		"task_slab":           g.KernelVA(l.TaskSlabPA),
		"modules":             g.KernelVA(l.GlobalsPA + 0),
		"socket_list":         g.KernelVA(l.GlobalsPA + 8),
		"file_list":           g.KernelVA(l.GlobalsPA + 16),
		"pid_hash":            g.KernelVA(l.PIDHashPA),
		"registry_hive":       g.KernelVA(l.GlobalsPA + 24),
		"crimes_canary_table": g.KernelVA(l.CanaryTablePA),
	}
}

// SystemMap renders the kernel symbol table in System.map format
// ("<hex address> T <name>" lines), which the VMI layer parses during
// initialization exactly as LibVMI parses a real System.map. It appends
// into one buffer rather than formatting through fmt, whose pooled
// printers make the allocation count depend on when the collector last
// ran.
func (g *Guest) SystemMap() string {
	syms := g.Symbols()
	names := make([]string, 0, len(syms))
	size := 0
	for n := range syms {
		names = append(names, n)
		size += len("0000000000000000 T \n") + len(n)
	}
	sort.Strings(names)
	b := make([]byte, 0, size)
	var hex [16]byte
	for _, n := range names {
		digits := strconv.AppendUint(hex[:0], syms[n], 16)
		b = append(b, "0000000000000000"[len(digits):]...)
		b = append(b, digits...)
		b = append(b, " T "...)
		b = append(b, n...)
		b = append(b, '\n')
	}
	return string(b)
}
