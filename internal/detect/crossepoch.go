package detect

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/vmi"
)

// This file holds the cross-epoch detectors: modules that look past the
// current audit boundary so they can catch epoch-aware adversaries —
// attacks staged and cleaned up entirely between two audits, which
// every single-snapshot module is structurally blind to. The census
// retains state keyed per guest image (the VMI context's reader), like
// IncrementalDeepScanModule, so one instance shared across a fleet keeps
// each VM's history separate; the revert diff reads the last commit
// through the scan context and holds no state at all.

// zombieState mirrors the guest kernel's task zombie state: an exited
// process whose slab record remains as forensic evidence.
const zombieState = 2

// TransientCensusModule catches processes that spawn and exit entirely
// inside one epoch. A transient attack process is invisible to every
// point-in-time view — by the boundary it is unlinked from the task
// list and pid hash, and the deep sweeps skip its record because its
// state is zombie, not running. The census instead retains the set of
// PIDs observed alive at any prior boundary; a zombie slab record whose
// PID was never in that set must belong to a process whose entire
// lifetime fit between two audits.
type TransientCensusModule struct {
	mu      sync.Mutex
	byGuest map[vmi.PhysReader]*censusState
}

type censusState struct {
	mu sync.Mutex
	// aliveSeen holds every PID observed alive at a prior boundary.
	aliveSeen map[uint32]bool
	// reported suppresses duplicate findings for the same zombie record
	// across later scans (the record's bytes persist until slot reuse).
	reported map[uint64]bool
}

var _ Module = (*TransientCensusModule)(nil)

// NewTransientCensus returns a cross-epoch process-lifetime census.
func NewTransientCensus() *TransientCensusModule {
	return &TransientCensusModule{byGuest: make(map[vmi.PhysReader]*censusState)}
}

// Name implements Module.
func (*TransientCensusModule) Name() string { return "transient-census" }

// Scan implements Module.
func (m *TransientCensusModule) Scan(ctx *ScanContext) ([]Finding, error) {
	m.mu.Lock()
	st := m.byGuest[ctx.VMI.Reader()]
	if st == nil {
		st = &censusState{aliveSeen: make(map[uint32]bool), reported: make(map[uint64]bool)}
		m.byGuest[ctx.VMI.Reader()] = st
	}
	m.mu.Unlock()

	st.mu.Lock()
	defer st.mu.Unlock()

	alive, err := currentAlivePIDs(ctx)
	if err != nil {
		return nil, err
	}
	zombies, err := sweepTaskSlab(ctx, zombieState)
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, z := range zombies {
		if st.aliveSeen[z.pid] || alive[z.pid] || st.reported[z.va] {
			continue
		}
		st.reported[z.va] = true
		out = append(out, Finding{
			Module: "transient-census",
			Kind:   KindTransientProcess,
			PID:    z.pid,
			Name:   z.name,
			TaskVA: z.va,
			Description: fmt.Sprintf(
				"zombie record %q pid %d at %#x was never observed alive at any audit boundary (spawned and exited within one epoch)",
				z.name, z.pid, z.va),
		})
	}
	for pid := range alive {
		st.aliveSeen[pid] = true
	}
	return out, nil
}

// currentAlivePIDs merges both kernel process views so a hidden-but-
// alive process still counts as observed.
func currentAlivePIDs(ctx *ScanContext) (map[uint32]bool, error) {
	listed, err := ctx.VMI.ProcessListView()
	if err != nil {
		return nil, err
	}
	hashed, err := ctx.VMI.PIDHashListView()
	if err != nil {
		return nil, err
	}
	alive := make(map[uint32]bool, len(listed)+len(hashed))
	for _, p := range listed {
		alive[p.PID] = true
	}
	for _, p := range hashed {
		alive[p.PID] = true
	}
	return alive, nil
}

// sweepTaskSlab parses every task slab slot and returns the records in
// the requested state. Unlike the whole-memory deep sweep this reads
// only the slab region, which the census and revert modules know from
// the task_slab symbol.
func sweepTaskSlab(ctx *ScanContext, wantState uint32) ([]rawCandidate, error) {
	prof := ctx.VMI.Profile()
	slabVA, err := ctx.VMI.Symbol("task_slab")
	if err != nil {
		return nil, err
	}
	slabPA := slabVA - prof.KernelVirtBase
	buf := make([]byte, guestos.MaxTasks*prof.TaskSize)
	if err := ctx.VMI.ReadPA(slabPA, buf); err != nil {
		return nil, fmt.Errorf("task slab sweep at %#x: %w", slabPA, err)
	}
	var out []rawCandidate
	for slot := 0; slot < guestos.MaxTasks; slot++ {
		rec := buf[slot*prof.TaskSize : (slot+1)*prof.TaskSize]
		if binary.LittleEndian.Uint32(rec[0:]) != prof.TaskMagic {
			continue
		}
		pid := binary.LittleEndian.Uint32(rec[prof.TaskOffPID:])
		state := binary.LittleEndian.Uint32(rec[prof.TaskOffState:])
		name := vmi.CStr(rec[prof.TaskOffComm : prof.TaskOffComm+prof.TaskCommLen])
		if pid == 0 || state != wantState || !printable(name) {
			continue
		}
		out = append(out, rawCandidate{
			pid:  pid,
			name: name,
			va:   slabVA + uint64(slot*prof.TaskSize),
		})
	}
	return out, nil
}

// CrossEpochRevertModule catches write-then-revert DKOM: an attacker
// who mutates a kernel structure mid-epoch (say, unlinks a task) and
// restores the exact prior bytes before the boundary looks clean to
// every content check — but the dirty bitmap still records the writes.
// A watched kernel-structure page (task slab, pid hash, syscall table)
// that is dirty this epoch yet byte-identical to the last committed
// image was written and then restored, which no benign kernel path does
// to these regions. The module keeps no copies of its own: the
// committed image is the checkpointer's, read through
// ScanContext.Committed — the same bytes a rollback would restore.
type CrossEpochRevertModule struct{}

var _ Module = CrossEpochRevertModule{}

// Name implements Module.
func (CrossEpochRevertModule) Name() string { return "cross-epoch-revert" }

// watchedRegions returns the [pa, pa+len) spans of the kernel
// structures worth diffing across epochs.
func watchedRegions(ctx *ScanContext) ([][2]uint64, error) {
	prof := ctx.VMI.Profile()
	spans := make([][2]uint64, 0, 3)
	for _, r := range []struct {
		sym  string
		size uint64
	}{
		{"task_slab", uint64(guestos.MaxTasks * prof.TaskSize)},
		{"pid_hash", uint64(prof.PIDHashBuckets * 8)},
		{"sys_call_table", uint64(prof.NumSyscalls * 8)},
	} {
		va, err := ctx.VMI.Symbol(r.sym)
		if err != nil {
			return nil, err
		}
		spans = append(spans, [2]uint64{va - prof.KernelVirtBase, r.size})
	}
	return spans, nil
}

// Scan implements Module.
func (CrossEpochRevertModule) Scan(ctx *ScanContext) ([]Finding, error) {
	// No committed image (asynchronous audit, replay forensics, an audit
	// before the commit that follows a rollback, whose restored pages
	// stay dirty yet match the commit) or no bitmap means nothing to diff
	// against. A real in-guest revert only dirties the handful of pages
	// it touched, so a blanket-dirty bitmap — a whole image restored and
	// marked dirty — is a restore, not an attack.
	if ctx.Committed == nil || ctx.Dirty == nil ||
		ctx.Dirty.Count() >= int(ctx.VMI.MemBytes()/mem.PageSize) {
		return nil, nil
	}
	spans, err := watchedRegions(ctx)
	if err != nil {
		return nil, err
	}
	var pages []int
	for _, s := range spans {
		for pa := s[0] &^ (mem.PageSize - 1); pa < s[0]+s[1]; pa += mem.PageSize {
			if p := int(pa / mem.PageSize); ctx.Dirty.Test(p) {
				pages = append(pages, p)
			}
		}
	}
	if len(pages) == 0 {
		return nil, nil
	}
	slices.Sort(pages)
	pages = slices.Compact(pages)
	var out []Finding
	cur := make([]byte, mem.PageSize)
	committed := make([]byte, mem.PageSize)
	for _, p := range pages {
		if err := ctx.VMI.ReadPA(uint64(p)*mem.PageSize, cur); err != nil {
			return nil, fmt.Errorf("cross-epoch revert read page %d: %w", p, err)
		}
		if err := ctx.Committed(mem.PFN(p), committed); err != nil {
			return nil, fmt.Errorf("cross-epoch revert read committed page %d: %w", p, err)
		}
		if bytes.Equal(cur, committed) {
			out = append(out, Finding{
				Module: "cross-epoch-revert",
				Kind:   KindWriteRevert,
				TaskVA: uint64(p) * mem.PageSize,
				Description: fmt.Sprintf(
					"kernel structure page %d was written during the epoch yet matches the last commit byte-for-byte (write-then-revert DKOM)",
					p),
			})
		}
	}
	return out, nil
}
