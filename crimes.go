// Package crimes is the public API of the CRIMES reproduction: an
// evidence-based security framework for virtual machines that couples
// speculative execution with memory introspection (Middleware '18).
//
// A protected system runs a simulated guest OS inside a simulated
// hypervisor domain. Execution proceeds in epochs: the guest's external
// outputs are buffered, the VM is paused at each epoch boundary, VMI
// scan modules audit memory for evidence of attacks, and on a passing
// audit the epoch is checkpointed and its outputs released. On a failed
// audit the outputs are discarded and the analyzer rolls back, replays,
// and produces a forensic report.
//
// Quick start:
//
//	sys, err := crimes.Launch(crimes.Options{})
//	...
//	res, err := sys.RunEpoch(func(g *guestos.Guest) error {
//		// guest work for one epoch
//		return nil
//	})
//	if res.Incident != nil {
//		fmt.Println(res.Incident.Report.Render())
//	}
package crimes

import (
	"fmt"
	"io"

	"repro/internal/analyze"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/fault"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/netbuf"
	"repro/internal/obs"
	"repro/internal/volatility"
)

// Re-exported configuration types.
type (
	// Config configures the CRIMES controller (epoch interval, safety
	// mode, scan mode, optimization level, modules).
	Config = core.Config
	// Controller is the per-VM CRIMES instance.
	Controller = core.Controller
	// EpochResult reports one epoch's outcome.
	EpochResult = core.EpochResult
	// Incident is a failed audit plus the analyzer's output.
	Incident = core.Incident
	// Finding is one piece of attack evidence.
	Finding = detect.Finding
	// Module is a pluggable detector scan.
	Module = detect.Module
	// Report is the rendered forensic report.
	Report = volatility.Report
	// Pinpoint identifies the exact replayed write that caused an attack.
	Pinpoint = analyze.Pinpoint
	// ScanMode selects synchronous or asynchronous audits.
	ScanMode = core.ScanMode
	// ScanCacheMode selects the audit's guest-memory read strategy
	// (direct, per-epoch mappings, or a persistent mapping cache with
	// incremental walks).
	ScanCacheMode = core.ScanCacheMode
	// RemusMode selects the replication conduit's wire protocol (raw
	// full-page copies, XOR-delta encoding, or delta plus content-hash
	// deduplication).
	RemusMode = core.RemusMode
	// Recovery reports the retries, degradations, and unwind path an
	// epoch needed (zero value: no recovery at all).
	Recovery = core.Recovery
	// CommitReport describes one checkpoint commit: recovery events,
	// measured parallel phase timings, and the pipelined remote-
	// replication window state.
	CommitReport = checkpoint.CommitReport
	// FaultInjector deterministically fails the Nth occurrence of a
	// named hypercall, conduit, or disk operation (testing and chaos
	// experiments).
	FaultInjector = fault.Injector
	// Observer is the observability hook hung off Config.Obs: a
	// structured epoch trace plus a metrics registry. The nil default is
	// a strict no-op.
	Observer = obs.Observer
	// TraceEvent is one structured trace record (one epoch phase of one
	// VM).
	TraceEvent = obs.Event
	// MetricsRegistry collects counters, gauges, and histograms and
	// renders a deterministic Prometheus-format text dump.
	MetricsRegistry = obs.Registry
)

// NewObserver builds an observer for Config.Obs. When trace is non-nil
// the epoch trace is written to it as JSONL (one event per line); when
// metrics is set a fresh registry collects per-VM metrics, available
// via Observer.Metrics.DumpString(). Either half may be disabled.
func NewObserver(trace io.Writer, metrics bool) *Observer {
	o := &Observer{}
	if trace != nil {
		o.Trace = obs.NewTracer(obs.NewJSONLSink(trace))
	}
	if metrics {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// Safety modes (output buffering policy).
const (
	Synchronous = netbuf.Synchronous
	BestEffort  = netbuf.BestEffort
)

// Scan scheduling modes.
const (
	ScanSync  = core.ScanSync
	ScanAsync = core.ScanAsync
)

// Scan-cache modes (Config.ScanCache). Off is the default and
// reproduces the uncached scan path exactly.
const (
	ScanCacheOff      = core.ScanCacheOff
	ScanCacheUncached = core.ScanCacheUncached
	ScanCacheOn       = core.ScanCacheOn
)

// ParseScanCacheMode parses "off", "uncached", or "on" (flag values).
var ParseScanCacheMode = core.ParseScanCacheMode

// Replication wire-protocol modes (Config.Remus). Raw is the default
// and reproduces the full-page conduit protocol exactly.
const (
	RemusRaw        = core.RemusRaw
	RemusDelta      = core.RemusDelta
	RemusDeltaDedup = core.RemusDeltaDedup
)

// ParseRemusMode parses "raw", "delta", or "delta+dedup" (flag values).
var ParseRemusMode = core.ParseRemusMode

// Checkpointing optimization levels (§4.1).
const (
	OptNone   = cost.NoOpt
	OptMemcpy = cost.Memcpy
	OptPremap = cost.Premap
	OptFull   = cost.Full
)

// Unwind paths recorded in Recovery after an epoch error.
const (
	UnwindNone     = core.UnwindNone
	UnwindResume   = core.UnwindResume
	UnwindRollback = core.UnwindRollback
	UnwindHalt     = core.UnwindHalt
)

// DefaultModules returns the full detector stack: guest-aided canary
// scanning plus the unaided malware, syscall-integrity, and
// hidden-process scans.
func DefaultModules() []Module { return detect.DefaultModules() }

// Options configures Launch.
type Options struct {
	// GuestPages is the guest's memory size in 4 KiB pages (default 1024).
	GuestPages int
	// Windows selects the Windows guest profile instead of Linux.
	Windows bool
	// Seed is the guest's boot entropy (canary secret).
	Seed int64
	// Config is the controller configuration; zero values take the
	// defaults (200 ms epochs, Synchronous safety, Full optimization).
	Config Config
}

// System is a launched guest under CRIMES protection.
type System struct {
	HV         *hv.Hypervisor
	Guest      *guestos.Guest
	Controller *Controller
}

// Launch boots a guest on a fresh hypervisor and attaches a CRIMES
// controller. If no modules are configured, DefaultModules are used.
func Launch(opts Options) (*System, error) {
	if opts.GuestPages <= 0 {
		opts.GuestPages = 1024
	}
	if opts.Config.Modules == nil {
		opts.Config.Modules = DefaultModules()
	}
	prof := guestos.LinuxProfile()
	if opts.Windows {
		prof = guestos.WindowsProfile()
	}
	h := hv.New(2*opts.GuestPages + 16)
	ctl, err := core.Launch(h, core.GuestSpec{
		Name: "guest", Pages: opts.GuestPages,
		Boot: guestos.BootConfig{Profile: prof, Seed: opts.Seed},
	}, opts.Config)
	if err != nil {
		return nil, fmt.Errorf("crimes: %w", err)
	}
	return &System{HV: h, Guest: ctl.Guest(), Controller: ctl}, nil
}

// RunEpoch executes one epoch of guest work under protection.
func (s *System) RunEpoch(work func(*guestos.Guest) error) (*EpochResult, error) {
	return s.Controller.RunEpoch(work)
}

// Close releases the system's checkpointing resources.
func (s *System) Close() error { return s.Controller.Close() }
