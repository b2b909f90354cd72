package detect

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/vmi"
)

// DeepScanModule is the Volatility-grade heuristic sweep (§5.3): it
// scans ALL of guest memory for process-record signatures, recovering
// records that no kernel list reaches (fully unlinked rootkit
// processes, residues of exited malware). Unlike the per-checkpoint
// modules it ignores the dirty bitmap and reads every page, which is
// why the paper proposes running such scans asynchronously against the
// last checkpoint rather than inline: "complex security tools such as
// Volatility could be used asynchronously on the last checkpoint as the
// VM continues to run."
type DeepScanModule struct{}

var _ Module = DeepScanModule{}

// Name implements Module.
func (DeepScanModule) Name() string { return "deep-psscan" }

// Scan implements Module.
func (DeepScanModule) Scan(ctx *ScanContext) ([]Finding, error) {
	known, err := knownTaskSet(ctx)
	if err != nil {
		return nil, err
	}
	prof := ctx.VMI.Profile()
	buf := make([]byte, mem.PageSize+prof.TaskSize)
	memBytes := ctx.VMI.MemBytes()
	var out []Finding
	for pa := uint64(0); pa < memBytes; pa += mem.PageSize {
		cands, err := sweepPage(ctx, pa, buf)
		if err != nil {
			return nil, err
		}
		out = appendFindings(out, cands, known)
	}
	return out, nil
}

// rawCandidate is one process-record signature found by the sweep,
// before the known-set filter. The content-dependent filters (nonzero
// PID, live state, printable name) are applied at sweep time — a
// record's bytes cannot change without dirtying a page it occupies —
// while the known-set filter must be re-applied against a fresh list
// walk on every scan, because linking or unlinking a task changes which
// records are reachable without touching the records themselves.
type rawCandidate struct {
	pid  uint32
	name string
	va   uint64
}

// knownTaskSet walks both kernel process views and returns the task
// addresses reachable from either, the reference set a sweep candidate
// is suspicious for missing from.
func knownTaskSet(ctx *ScanContext) (map[uint64]bool, error) {
	listed, err := ctx.VMI.ProcessListView()
	if err != nil {
		return nil, err
	}
	hashed, err := ctx.VMI.PIDHashListView()
	if err != nil {
		return nil, err
	}
	known := make(map[uint64]bool, len(listed)+len(hashed))
	for _, p := range listed {
		known[p.TaskVA] = true
	}
	for _, p := range hashed {
		known[p.TaskVA] = true
	}
	return known, nil
}

// sweepPage extracts the raw candidates whose records START on the page
// at pa. It reads the page plus a record-size tail so records spanning
// into the next page are still parsed; buf must hold PageSize+TaskSize
// bytes and is only valid until the next call.
func sweepPage(ctx *ScanContext, pa uint64, buf []byte) ([]rawCandidate, error) {
	prof := ctx.VMI.Profile()
	memBytes := ctx.VMI.MemBytes()
	n := mem.PageSize + prof.TaskSize
	if pa+uint64(n) > memBytes {
		n = int(memBytes - pa)
	}
	if err := ctx.VMI.ReadPA(pa, buf[:n]); err != nil {
		return nil, fmt.Errorf("deep scan at %#x: %w", pa, err)
	}
	limit := mem.PageSize
	if limit > n-prof.TaskSize {
		limit = n - prof.TaskSize
	}
	var cands []rawCandidate
	for off := 0; off <= limit; off += 4 {
		if binary.LittleEndian.Uint32(buf[off:]) != prof.TaskMagic {
			continue
		}
		rec := buf[off : off+prof.TaskSize]
		pid := binary.LittleEndian.Uint32(rec[prof.TaskOffPID:])
		state := binary.LittleEndian.Uint32(rec[prof.TaskOffState:])
		name := vmi.CStr(rec[prof.TaskOffComm : prof.TaskOffComm+prof.TaskCommLen])
		if pid == 0 || state != 1 || !printable(name) {
			continue
		}
		cands = append(cands, rawCandidate{
			pid:  pid,
			name: name,
			va:   pa + uint64(off) + prof.KernelVirtBase,
		})
	}
	return cands, nil
}

// appendFindings applies the known-set filter and renders the surviving
// candidates, in sweep order.
func appendFindings(out []Finding, cands []rawCandidate, known map[uint64]bool) []Finding {
	for _, c := range cands {
		if known[c.va] {
			continue
		}
		out = append(out, Finding{
			Module: "deep-psscan",
			Kind:   KindHiddenProcess,
			PID:    c.pid,
			Name:   c.name,
			TaskVA: c.va,
			Description: fmt.Sprintf(
				"live process record %q pid %d at %#x is reachable from no kernel list (fully unlinked)",
				c.name, c.pid, c.va),
		})
	}
	return out
}

// IncrementalDeepScanModule is the deep sweep made dirty-page-driven:
// it memoizes the raw candidates found on each page and, when the scan
// context carries a dirty bitmap, re-sweeps only the pages whose
// contents could have changed since the last scan — a dirty page, or
// the page before it (whose tail records spill into it). The known-set
// filter is re-applied fresh every scan, so unlink-only attacks (which
// dirty list pages, not the victim record) are still caught. With a nil
// bitmap (the initial scan, replay forensics, the async audit) it falls
// back to the full sweep and rebuilds the memo.
//
// Memos are keyed per guest image (the VMI context's reader), so one
// module instance shared across a fleet's controllers keeps each VM's
// candidates separate.
type IncrementalDeepScanModule struct {
	mu    sync.Mutex
	memos map[vmi.PhysReader]*deepMemo
}

type deepMemo struct {
	mu sync.Mutex
	// pages[p] holds the raw candidates whose records start on page p.
	pages [][]rawCandidate
}

var _ Module = (*IncrementalDeepScanModule)(nil)

// NewIncrementalDeepScan returns a deep sweep that re-scans only dirty
// pages after its first full pass.
func NewIncrementalDeepScan() *IncrementalDeepScanModule {
	return &IncrementalDeepScanModule{memos: make(map[vmi.PhysReader]*deepMemo)}
}

// Name implements Module.
func (*IncrementalDeepScanModule) Name() string { return "deep-psscan" }

// Scan implements Module.
func (m *IncrementalDeepScanModule) Scan(ctx *ScanContext) ([]Finding, error) {
	known, err := knownTaskSet(ctx)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	memo := m.memos[ctx.VMI.Reader()]
	if memo == nil {
		memo = &deepMemo{}
		m.memos[ctx.VMI.Reader()] = memo
	}
	m.mu.Unlock()

	memo.mu.Lock()
	defer memo.mu.Unlock()
	prof := ctx.VMI.Profile()
	numPages := int(ctx.VMI.MemBytes() / mem.PageSize)
	buf := make([]byte, mem.PageSize+prof.TaskSize)
	full := memo.pages == nil || len(memo.pages) != numPages || ctx.Dirty == nil
	if full {
		memo.pages = make([][]rawCandidate, numPages)
	}
	for p := 0; p < numPages; p++ {
		if !full && !pageAffected(ctx.Dirty, p, numPages) {
			continue
		}
		cands, err := sweepPage(ctx, uint64(p)*mem.PageSize, buf)
		if err != nil {
			return nil, err
		}
		memo.pages[p] = cands
	}
	var out []Finding
	for _, cands := range memo.pages {
		out = appendFindings(out, cands, known)
	}
	return out, nil
}

// pageAffected reports whether the records starting on page p could
// have changed: p itself is dirty, or the next page is (a record
// starting near the end of p spills into it).
func pageAffected(dirty *mem.Bitmap, p, numPages int) bool {
	if dirty.Test(p) {
		return true
	}
	return p+1 < numPages && dirty.Test(p+1)
}

func printable(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < 0x20 || r > 0x7e {
			return false
		}
	}
	return true
}
