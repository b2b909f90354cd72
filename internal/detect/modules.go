package detect

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"repro/internal/vmi"
)

// CanaryModule is the guest-aided buffer-overflow scan (§4.2): it reads
// the guest's canary lookup table and validates each canary that lives
// on a page dirtied during the epoch. The paper measures this scan at
// ~90,000 canaries per millisecond because it is a straight table walk.
// With a dirty bitmap it asks the VMI context for just the canaries on
// dirty pages (vmi.Context.DirtyCanaries): with a walk memo attached
// that costs the table pages and canary pages the epoch dirtied, not
// the table's size. Without one (the async audit of the backup, the
// postmortem) it validates every live canary.
type CanaryModule struct{}

var _ Module = CanaryModule{}

// Name implements Module.
func (CanaryModule) Name() string { return "canary-overflow" }

// Scan implements Module.
func (CanaryModule) Scan(ctx *ScanContext) ([]Finding, error) {
	var entries []vmi.CanaryEntry
	var err error
	if ctx.Dirty != nil {
		entries, err = ctx.VMI.DirtyCanaries(ctx.Dirty)
	} else {
		entries, err = ctx.VMI.CanaryTable()
	}
	if err != nil {
		return nil, err
	}
	var out []Finding
	var buf [8]byte
	for _, e := range entries {
		ctx.Counts.CanariesChecked++
		if err := ctx.VMI.ReadPA(e.PA, buf[:]); err != nil {
			return nil, fmt.Errorf("canary %d at %#x: %w", e.Index, e.PA, err)
		}
		got := binary.LittleEndian.Uint64(buf[:])
		if got == e.Value {
			continue
		}
		out = append(out, Finding{
			Module:      "canary-overflow",
			Kind:        KindBufferOverflow,
			Description: fmt.Sprintf("heap canary at pa %#x overwritten (%#x != %#x)", e.PA, got, e.Value),
			CanaryPA:    e.PA,
			CanaryIndex: e.Index,
			Expected:    e.Value,
			Got:         got,
		})
	}
	return out, nil
}

// DefaultBlacklist is a stand-in for the McAfee malware registry the
// paper consults [3]: known-bad process names.
func DefaultBlacklist() []string {
	return []string{
		"reg_read.exe",
		"mimikatz.exe",
		"cryptolocker",
		"xmrig",
		"kinsing",
		"darkcomet.exe",
	}
}

// MalwareModule is the unaided blacklist scan (§4.2 Malware Detection):
// the task list is compared against known malicious process names. It
// needs no guest cooperation.
type MalwareModule struct {
	blacklist map[string]bool
}

var _ Module = (*MalwareModule)(nil)

// NewMalwareModule builds the module; a nil list uses DefaultBlacklist.
func NewMalwareModule(blacklist []string) *MalwareModule {
	if blacklist == nil {
		blacklist = DefaultBlacklist()
	}
	m := &MalwareModule{blacklist: make(map[string]bool, len(blacklist))}
	for _, n := range blacklist {
		m.blacklist[strings.ToLower(n)] = true
	}
	return m
}

// Name implements Module.
func (*MalwareModule) Name() string { return "malware-blacklist" }

// Scan implements Module.
func (m *MalwareModule) Scan(ctx *ScanContext) ([]Finding, error) {
	procs, err := ctx.VMI.ProcessListView()
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, p := range procs {
		if !m.blacklist[strings.ToLower(p.Name)] {
			continue
		}
		out = append(out, Finding{
			Module:      "malware-blacklist",
			Kind:        KindMalware,
			Description: fmt.Sprintf("blacklisted process %q running as pid %d", p.Name, p.PID),
			PID:         p.PID,
			Name:        p.Name,
			TaskVA:      p.TaskVA,
		})
	}
	return out, nil
}

// SyscallModule is the unaided kernel-integrity scan: the syscall table
// is compared against the known-good state captured when introspection
// was initialized (§2: "comparing kernel structures against known-good
// state to detect attacks like system call table hijacking").
type SyscallModule struct{}

var _ Module = SyscallModule{}

// Name implements Module.
func (SyscallModule) Name() string { return "syscall-integrity" }

// Scan implements Module.
func (SyscallModule) Scan(ctx *ScanContext) ([]Finding, error) {
	bad, err := ctx.VMI.CheckSyscallIntegrity()
	if err != nil {
		return nil, err
	}
	var out []Finding
	for _, m := range bad {
		out = append(out, Finding{
			Module:       "syscall-integrity",
			Kind:         KindSyscallHijack,
			Description:  fmt.Sprintf("syscall table entry %d hijacked: %#x (expected %#x)", m.Index, m.Got, m.Want),
			SyscallIndex: m.Index,
			Expected:     m.Want,
			Got:          m.Got,
		})
	}
	return out, nil
}

// HiddenProcessModule is the unaided cross-view scan: a process present
// in the pid hash but missing from the task list has been unlinked by a
// rootkit ("parsing kernel data structures to find anomalous behavior
// such as illicit processes", §2).
type HiddenProcessModule struct{}

var _ Module = HiddenProcessModule{}

// Name implements Module.
func (HiddenProcessModule) Name() string { return "hidden-process" }

// Scan implements Module.
func (HiddenProcessModule) Scan(ctx *ScanContext) ([]Finding, error) {
	listed, err := ctx.VMI.ProcessListView()
	if err != nil {
		return nil, err
	}
	hashed, err := ctx.VMI.PIDHashListView()
	if err != nil {
		return nil, err
	}
	// The task list's addresses, sorted for lookup. A guest's usual
	// process count fits the array, so the scan allocates nothing when
	// it finds nothing.
	var vaBuf [256]uint64
	inList := vaBuf[:0]
	for _, p := range listed {
		inList = append(inList, p.TaskVA)
	}
	slices.Sort(inList)
	var out []Finding
	for _, p := range hashed {
		if _, found := slices.BinarySearch(inList, p.TaskVA); found || p.State != 1 {
			continue
		}
		out = append(out, Finding{
			Module:      "hidden-process",
			Kind:        KindHiddenProcess,
			Description: fmt.Sprintf("process %q pid %d is in pid_hash but unlinked from the task list", p.Name, p.PID),
			PID:         p.PID,
			Name:        p.Name,
			TaskVA:      p.TaskVA,
		})
	}
	return out, nil
}
