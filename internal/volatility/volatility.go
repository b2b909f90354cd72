// Package volatility is the Volatility Framework equivalent: forensic
// plugins that operate on raw memory dumps rather than live domains.
// CRIMES uses it for automated post-mortem analysis (§3.3): pslist,
// psscan, psxview, procdump, netscan, handles, proc_maps, dump diffing,
// and report generation.
package volatility

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/vmi"
)

// ErrBadDump is returned when a dump cannot be analyzed.
var ErrBadDump = errors.New("volatility: bad memory dump")

// Dump is a raw guest memory image plus the metadata needed to parse it
// (profile and symbols), the analogue of a Volatility image + profile.
type Dump struct {
	Snapshot  *hv.Snapshot
	Profile   *guestos.Profile
	SystemMap string
}

// NewDump wraps a domain snapshot for forensic analysis.
func NewDump(s *hv.Snapshot, prof *guestos.Profile, systemMap string) *Dump {
	return &Dump{Snapshot: s, Profile: prof, SystemMap: systemMap}
}

// ReadPhys implements vmi.PhysReader over the dump.
func (d *Dump) ReadPhys(paddr uint64, buf []byte) error {
	if err := d.Snapshot.ReadPhys(paddr, buf); err != nil {
		return fmt.Errorf("volatility: %v: %w", err, ErrBadDump)
	}
	return nil
}

// MemBytes implements vmi.PhysReader.
func (d *Dump) MemBytes() uint64 { return d.Snapshot.MemBytes() }

// scanRecords finds every size-byte record that starts at a 4-aligned
// offset with the little-endian magic and lies wholly inside the dump,
// calling fn with its offset and bytes in ascending offset order. Each
// page is searched for the magic on its own: the magic is 4 bytes at a
// 4-aligned offset, so it never straddles a page seam, while a record
// that does is read through the snapshot into a scratch buffer. rec is
// only valid during the call.
func scanRecords(d *Dump, magic uint32, size int, fn func(off uint64, rec []byte)) {
	var pat [4]byte
	binary.LittleEndian.PutUint32(pat[:], magic)
	limit := int64(d.MemBytes()) - int64(size)
	var scratch []byte
	for pfn := 0; pfn < d.Snapshot.Pages; pfn++ {
		pg, _ := d.Snapshot.ReadPage(mem.PFN(pfn))
		base := int64(pfn) * mem.PageSize
		for i := 0; ; i += 4 {
			j := bytes.Index(pg[i:], pat[:])
			if j < 0 {
				break
			}
			i += j &^ 3
			if j&3 != 0 {
				continue // misaligned hit; resume at the next aligned slot
			}
			off := base + int64(i)
			if off > limit {
				return
			}
			rec := pg[i:min(i+size, mem.PageSize)]
			if len(rec) < size {
				if scratch == nil {
					scratch = make([]byte, size)
				}
				rec = scratch
				_ = d.Snapshot.ReadPhys(uint64(off), rec)
			}
			fn(uint64(off), rec)
		}
	}
}

// Context builds an introspection context over the dump.
func (d *Dump) Context() (*vmi.Context, error) {
	return vmi.NewContext(d, d.Profile, d.SystemMap)
}

// PsList returns the processes visible in the task list (Volatility's
// pslist / linux_pslist).
func PsList(d *Dump) ([]vmi.ProcessInfo, error) {
	ctx, err := d.Context()
	if err != nil {
		return nil, err
	}
	return ctx.ProcessList()
}

// PsScan performs the heuristic whole-memory search for process records
// (Volatility's psscan): it scans every aligned offset of the dump for
// the task signature and validates plausibility, recovering processes
// that were unlinked or have exited.
func PsScan(d *Dump) ([]vmi.ProcessInfo, error) {
	p := d.Profile
	var out []vmi.ProcessInfo
	// Scan at 4-byte alignment so records are found regardless of slab
	// placement.
	scanRecords(d, p.TaskMagic, p.TaskSize, func(off uint64, rec []byte) {
		info := vmi.ProcessInfo{
			TaskVA:    off + p.KernelVirtBase,
			PID:       binary.LittleEndian.Uint32(rec[p.TaskOffPID:]),
			UID:       binary.LittleEndian.Uint32(rec[p.TaskOffUID:]),
			State:     binary.LittleEndian.Uint32(rec[p.TaskOffState:]),
			Name:      vmi.CStr(rec[p.TaskOffComm : p.TaskOffComm+p.TaskCommLen]),
			StartTime: binary.LittleEndian.Uint64(rec[p.TaskOffStart:]),
		}
		if plausibleTask(info) {
			out = append(out, info)
		}
	})
	return out, nil
}

func plausibleTask(t vmi.ProcessInfo) bool {
	if t.PID > 1_000_000 {
		return false
	}
	if t.Name == "" {
		return false
	}
	for _, r := range t.Name {
		if r < 0x20 || r > 0x7e {
			return false
		}
	}
	return true
}

// XViewRow is one psxview cross-view row: where a process record was
// and was not found.
type XViewRow struct {
	Name      string
	PID       uint32
	TaskVA    uint64
	State     uint32
	InPsList  bool
	InPsScan  bool
	InPIDHash bool
}

// Suspicious reports whether the row indicates a hidden process: found
// by scanning or hashing but absent from the task list while the record
// still looks alive.
func (r XViewRow) Suspicious() bool {
	return !r.InPsList && (r.InPsScan || r.InPIDHash) && r.State == 1
}

// PsXView builds the pslist/psscan/pid-hash cross view (psxview and
// linux_psxview): any process that appears in psscan or the pid hash
// but not in pslist is potentially malicious (§4.2 Memory Forensics).
func PsXView(d *Dump) ([]XViewRow, error) {
	ctx, err := d.Context()
	if err != nil {
		return nil, err
	}
	list, err := ctx.ProcessList()
	if err != nil {
		return nil, err
	}
	hashed, err := ctx.PIDHashList()
	if err != nil {
		return nil, err
	}
	scanned, err := PsScan(d)
	if err != nil {
		return nil, err
	}

	rows := make(map[uint64]*XViewRow)
	add := func(p vmi.ProcessInfo) *XViewRow {
		row, ok := rows[p.TaskVA]
		if !ok {
			row = &XViewRow{Name: p.Name, PID: p.PID, TaskVA: p.TaskVA, State: p.State}
			rows[p.TaskVA] = row
		}
		return row
	}
	for _, p := range list {
		add(p).InPsList = true
	}
	for _, p := range hashed {
		add(p).InPIDHash = true
	}
	for _, p := range scanned {
		if p.PID == 0 { // idle task: not part of the view
			continue
		}
		add(p).InPsScan = true
	}
	out := make([]XViewRow, 0, len(rows))
	for _, row := range rows {
		out = append(out, *row)
	}
	sortRows(out)
	return out, nil
}

func sortRows(rows []XViewRow) {
	for i := 1; i < len(rows); i++ {
		for j := i; j > 0 && rows[j].PID < rows[j-1].PID; j-- {
			rows[j], rows[j-1] = rows[j-1], rows[j]
		}
	}
}

// ProcDumpResult is an extracted process image (Volatility's procdump /
// linux_dump_map).
type ProcDumpResult struct {
	PID       uint32
	Name      string
	HeapStart uint64
	HeapEnd   uint64
	StackLow  uint64
	StackHigh uint64
	Image     []byte // the process's full region, heap through stack
}

// ProcDump extracts a process's memory image from the dump via its
// memory descriptor.
func ProcDump(d *Dump, pid uint32) (*ProcDumpResult, error) {
	ctx, err := d.Context()
	if err != nil {
		return nil, err
	}
	procs, err := ctx.ProcessList()
	if err != nil {
		return nil, err
	}
	// Hidden processes are recoverable through the pid hash.
	hashed, err := ctx.PIDHashList()
	if err != nil {
		return nil, err
	}
	var task *vmi.ProcessInfo
	for i := range procs {
		if procs[i].PID == pid {
			task = &procs[i]
			break
		}
	}
	if task == nil {
		for i := range hashed {
			if hashed[i].PID == pid {
				task = &hashed[i]
				break
			}
		}
	}
	if task == nil {
		return nil, fmt.Errorf("volatility procdump: pid %d not found in dump", pid)
	}
	mm, err := ctx.MemMap(task.TaskVA)
	if err != nil {
		return nil, fmt.Errorf("volatility procdump pid %d: %w", pid, err)
	}
	size := mm.StackHigh - mm.HeapStart
	img := make([]byte, size)
	if err := d.ReadPhys(mm.PhysBase, img); err != nil {
		return nil, fmt.Errorf("volatility procdump pid %d: %w", pid, err)
	}
	return &ProcDumpResult{
		PID: pid, Name: task.Name,
		HeapStart: mm.HeapStart, HeapEnd: mm.HeapEnd,
		StackLow: mm.StackLow, StackHigh: mm.StackHigh,
		Image: img,
	}, nil
}

// NetScan returns the socket records in the dump (Volatility's netscan).
func NetScan(d *Dump) ([]vmi.SocketInfo, error) {
	ctx, err := d.Context()
	if err != nil {
		return nil, err
	}
	return ctx.Sockets()
}

// Handles returns the open file handles in the dump (Volatility's
// handles plugin).
func Handles(d *Dump) ([]vmi.FileInfo, error) {
	ctx, err := d.Context()
	if err != nil {
		return nil, err
	}
	return ctx.FileHandles()
}

// ProcMaps renders a process's memory map (linux_proc_maps).
func ProcMaps(d *Dump, pid uint32) (string, error) {
	pd, err := ProcDump(d, pid)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x-%016x rw-p [heap]\n%016x-%016x rw-p [stack]\n",
		pd.HeapStart, pd.HeapEnd, pd.StackLow, pd.StackHigh), nil
}

// DiffPages compares two dumps page by page and returns the PFNs that
// differ. CRIMES maintains dumps from the last-good checkpoint and the
// failed audit; their difference localizes the attack's footprint.
// Dumps derived from one another share their unchanged pages, and a
// shared page is equal without comparing its bytes.
func DiffPages(a, b *Dump) ([]mem.PFN, error) {
	if a.MemBytes() != b.MemBytes() {
		return nil, fmt.Errorf("volatility diff: dump sizes differ (%d vs %d): %w",
			a.MemBytes(), b.MemBytes(), ErrBadDump)
	}
	var out []mem.PFN
	for p := 0; p < a.Snapshot.Pages; p++ {
		pa, _ := a.Snapshot.ReadPage(mem.PFN(p))
		pb, _ := b.Snapshot.ReadPage(mem.PFN(p))
		if &pa[0] != &pb[0] && !bytes.Equal(pa, pb) {
			out = append(out, mem.PFN(p))
		}
	}
	return out, nil
}
