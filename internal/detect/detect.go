// Package detect implements the CRIMES Detector (§3.2, §4.2): a modular
// framework of VMI-based security scans run at the end of each epoch
// while the VM is paused. Modules are either "unaided" (they interpret
// well-known kernel structures: process blacklists, syscall-table
// integrity, hidden-process cross views) or "guest-aided" (they consume
// tripwires the guest plants, such as the heap canary table).
package detect

import (
	"fmt"
	"sync"

	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/vmi"
)

// Kind classifies a finding.
type Kind int

// Finding kinds.
const (
	KindBufferOverflow Kind = iota + 1
	KindMalware
	KindSyscallHijack
	KindHiddenProcess
	KindSuspiciousOutput
	KindTransientProcess
	KindWriteRevert
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case KindBufferOverflow:
		return "buffer-overflow"
	case KindMalware:
		return "malware"
	case KindSyscallHijack:
		return "syscall-hijack"
	case KindHiddenProcess:
		return "hidden-process"
	case KindSuspiciousOutput:
		return "suspicious-output"
	case KindTransientProcess:
		return "transient-process"
	case KindWriteRevert:
		return "write-revert"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Finding is one piece of attack evidence a module found.
type Finding struct {
	Module      string
	Kind        Kind
	Description string

	// Buffer overflow fields.
	CanaryPA    uint64
	CanaryIndex int
	Expected    uint64
	Got         uint64

	// Process-related fields.
	PID    uint32
	Name   string
	TaskVA uint64

	// Syscall hijack fields.
	SyscallIndex int
}

// ScanContext is what the Checkpointer hands a module at the end of an
// epoch: an introspection context and the set of pages dirtied during
// the epoch, so scans can focus on memory that could hold new evidence.
type ScanContext struct {
	VMI *vmi.Context
	// Dirty is the epoch's dirty-page bitmap; nil means scan everything
	// (used for the initial scan and for replay forensics).
	Dirty *mem.Bitmap
	// Counts accumulates scan work for cost accounting.
	Counts *ScanCounts
	// Packets are the epoch's buffered outgoing packets, for
	// output-scanning modules; nil when buffering is disabled.
	Packets []guestos.Packet
	// DiskWrites are the epoch's buffered disk writes.
	DiskWrites []guestos.DiskWrite
	// Committed copies one page of the last committed memory image —
	// the image a rollback would restore — into dst. Only the
	// synchronous audit sets it; nil (the asynchronous audit, replay
	// forensics) means there is no commit to diff against.
	Committed func(pfn mem.PFN, dst []byte) error
}

// ScanCounts tallies audit work for the cost model.
type ScanCounts struct {
	NodesWalked     int
	CanariesChecked int
	OutputBytes     int
}

// Module is one pluggable security scan.
type Module interface {
	// Name identifies the module in findings and reports.
	Name() string
	// Scan inspects the VM and returns any evidence found.
	Scan(ctx *ScanContext) ([]Finding, error)
}

// Detector runs a set of modules at each epoch boundary.
type Detector struct {
	modules []Module
	workers int
}

// NewDetector creates a detector with the given modules.
func NewDetector(modules ...Module) *Detector {
	return &Detector{modules: modules, workers: 1}
}

// Modules returns the registered modules.
func (d *Detector) Modules() []Module { return d.modules }

// SetWorkers bounds how many modules Scan runs concurrently. Values
// below 1 are treated as 1 (the serial scan).
func (d *Detector) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	d.workers = n
}

// Workers reports the configured scan concurrency.
func (d *Detector) Workers() int { return d.workers }

// Scan runs every module and aggregates findings. A module error aborts
// the audit (failing safe: the epoch is not committed). With more than
// one worker configured, modules run concurrently over the paused —
// therefore immutable — guest memory, each through its own fork of the
// VMI context; findings, errors, and work counters are merged in module
// registration order, so the result is identical to the serial scan's.
func (d *Detector) Scan(ctx *ScanContext) ([]Finding, error) {
	if ctx.Counts == nil {
		ctx.Counts = &ScanCounts{}
	}
	if d.workers <= 1 || len(d.modules) <= 1 {
		return d.scanSerial(ctx)
	}
	return d.scanParallel(ctx)
}

func (d *Detector) scanSerial(ctx *ScanContext) ([]Finding, error) {
	var all []Finding
	for _, m := range d.modules {
		before := ctx.VMI.Stats()
		fs, err := m.Scan(ctx)
		if err != nil {
			return nil, fmt.Errorf("detect: module %s: %w", m.Name(), err)
		}
		after := ctx.VMI.Stats()
		ctx.Counts.NodesWalked += after.NodesWalked - before.NodesWalked
		all = append(all, fs...)
	}
	return all, nil
}

func (d *Detector) scanParallel(ctx *ScanContext) ([]Finding, error) {
	var (
		findings = make([][]Finding, len(d.modules))
		errs     = make([]error, len(d.modules))
		counts   = make([]ScanCounts, len(d.modules))
		forks    = make([]*vmi.Context, len(d.modules))
		sem      = make(chan struct{}, d.workers)
		wg       sync.WaitGroup
	)
	for i, m := range d.modules {
		wg.Add(1)
		go func(i int, m Module) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fork := ctx.VMI.Fork()
			forks[i] = fork
			sub := &ScanContext{
				VMI:        fork,
				Dirty:      ctx.Dirty,
				Counts:     &counts[i],
				Packets:    ctx.Packets,
				DiskWrites: ctx.DiskWrites,
				Committed:  ctx.Committed,
			}
			fs, err := m.Scan(sub)
			if err != nil {
				errs[i] = fmt.Errorf("detect: module %s: %w", m.Name(), err)
				return
			}
			counts[i].NodesWalked += fork.Stats().NodesWalked
			findings[i] = fs
		}(i, m)
	}
	wg.Wait()
	// Merge in registration order: the first registered module's error
	// wins, counters merge up to that module exactly as the serial scan
	// would have accumulated them, and the findings slice is identical
	// to the serial scan's.
	var all []Finding
	for i := range d.modules {
		if errs[i] != nil {
			return nil, errs[i]
		}
		ctx.VMI.AddStats(forks[i].Stats())
		ctx.Counts.NodesWalked += counts[i].NodesWalked
		ctx.Counts.CanariesChecked += counts[i].CanariesChecked
		ctx.Counts.OutputBytes += counts[i].OutputBytes
		all = append(all, findings[i]...)
	}
	return all, nil
}
