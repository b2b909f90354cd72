// Package analyze implements the CRIMES Analyzer (§3.3): after a failed
// audit it rolls the VM back to the last clean checkpoint, replays the
// epoch with Xen-style memory-event monitoring armed on the corrupted
// pages to pinpoint the exact write that caused the attack, and then
// performs Volatility-based post-mortem analysis over the memory dumps
// bracketing the attack.
package analyze

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/detect"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/volatility"
)

// ErrNotPinpointed is returned when replay completes without observing
// a write to any watched canary (e.g. non-deterministic external cause).
var ErrNotPinpointed = errors.New("analyze: replay did not reproduce the corrupting write")

// Pinpoint identifies the exact operation ("instruction") that
// corrupted a canary during replay.
type Pinpoint struct {
	OpSeq    uint64 // guest op sequence number
	RIP      uint64 // synthetic instruction pointer at the write
	Op       guestos.Op
	CanaryPA uint64 // the canary the write destroyed
	PFN      mem.PFN
	Offset   uint64 // write offset within the page
	Length   int
}

// Describe renders the pinpoint for a report.
func (p *Pinpoint) Describe() string {
	return fmt.Sprintf("op %d (%v) at rip %#x: pid %d wrote %d bytes at va %#x, destroying canary at pa %#x",
		p.OpSeq, p.Op.Kind, p.RIP, p.Op.PID, p.Length, p.Op.VA, p.CanaryPA)
}

// ReplayPinpoint rolls the primary back to the checkpoint, arms write
// watches on the pages holding the corrupted canaries, and re-executes
// the epoch's op log until a watched canary is overwritten. The guest
// is left paused at the exact point of the attack, with its outputs
// discarded (replay must have no external effect).
//
// Event monitoring is expensive (§4.2), which is why CRIMES only arms
// it here, during replay, never during normal operation.
func ReplayPinpoint(
	g *guestos.Guest,
	ckpt *checkpoint.Checkpointer,
	state *guestos.State,
	ops []guestos.Op,
	findings []detect.Finding,
) (*Pinpoint, error) {
	dom := g.Domain()

	canaries := make(map[mem.PFN][]detect.Finding)
	for _, f := range findings {
		if f.Kind != detect.KindBufferOverflow {
			continue
		}
		pfn := mem.PFN(f.CanaryPA >> mem.PageShift)
		canaries[pfn] = append(canaries[pfn], f)
	}
	if len(canaries) == 0 {
		return nil, fmt.Errorf("analyze: no buffer-overflow findings to pinpoint")
	}

	// Roll back memory and guest bookkeeping to the clean checkpoint.
	if err := ckpt.Rollback(); err != nil {
		return nil, err
	}
	g.RestoreState(state)

	// Replay must not emit external outputs.
	prevWatches := dom.WatchCount()
	g.SetOutputSink(guestos.DiscardSink{})
	for pfn := range canaries {
		if err := dom.WatchPage(pfn, hv.AccessWrite); err != nil {
			return nil, fmt.Errorf("analyze: arm watch on pfn %d: %w", pfn, err)
		}
	}
	defer func() {
		for pfn := range canaries {
			dom.UnwatchPage(pfn, hv.AccessWrite)
		}
	}()
	if prevWatches != 0 {
		return nil, fmt.Errorf("analyze: domain already had %d watches armed", prevWatches)
	}

	if dom.State() != hv.StateRunning {
		if err := dom.Resume(); err != nil {
			return nil, fmt.Errorf("analyze: resume for replay: %w", err)
		}
	}

	for _, op := range ops {
		if err := g.Replay(op); err != nil {
			return nil, err
		}
		for _, ev := range dom.PollEvents() {
			hit, f := eventHitsCanary(ev, canaries)
			if !hit {
				continue
			}
			// The guest's own allocator writes the canary when it is
			// placed; a write is the attack only if it leaves the
			// canary with a value other than the expected one.
			var cur [guestos.CanarySize]byte
			if err := dom.ReadPhys(f.CanaryPA, cur[:]); err != nil {
				return nil, fmt.Errorf("analyze: verify canary at %#x: %w", f.CanaryPA, err)
			}
			if leU64(cur[:]) == f.Expected {
				continue
			}
			// Pause at the exact instruction that triggered the
			// original overflow (§4.2).
			if err := dom.Pause(); err != nil {
				return nil, fmt.Errorf("analyze: pause at attack point: %w", err)
			}
			return &Pinpoint{
				OpSeq:    guestos.SeqFromRIP(ev.VCPU.RIP),
				RIP:      ev.VCPU.RIP,
				Op:       op,
				CanaryPA: f.CanaryPA,
				PFN:      ev.PFN,
				Offset:   ev.Offset,
				Length:   ev.Length,
			}, nil
		}
	}
	return nil, ErrNotPinpointed
}

func leU64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// eventHitsCanary checks whether a write event overlaps one of the
// watched 8-byte canaries (as opposed to some other part of the page).
func eventHitsCanary(ev hv.MemEvent, canaries map[mem.PFN][]detect.Finding) (bool, detect.Finding) {
	fs, ok := canaries[ev.PFN]
	if !ok || ev.Access != hv.AccessWrite {
		return false, detect.Finding{}
	}
	evStart := uint64(ev.PFN)*mem.PageSize + ev.Offset
	evEnd := evStart + uint64(ev.Length)
	for _, f := range fs {
		cStart, cEnd := f.CanaryPA, f.CanaryPA+guestos.CanarySize
		if evStart < cEnd && cStart < evEnd {
			return true, f
		}
	}
	return false, detect.Finding{}
}

// Dumps bundles the memory snapshots CRIMES produces around an attack:
// the last good checkpoint, the state at the failed audit, and (after
// replay) the state at the precise point of the attack.
type Dumps struct {
	LastGood  *volatility.Dump
	AuditFail *volatility.Dump
	AtAttack  *volatility.Dump // nil when replay was not performed
}

// CaptureDumps takes the last-good dump, the image of the last commit
// (Checkpointer.Committed), and the audit-fail dump of the primary as it
// stands. The primary differs from the last commit only in the pages of
// its dirty log, so the audit-fail dump shares every other page with the
// last-good one and copies only those.
func CaptureDumps(g *guestos.Guest, ckpt *checkpoint.Checkpointer) (*Dumps, error) {
	goodSnap, err := ckpt.Committed()
	if err != nil {
		return nil, fmt.Errorf("analyze: dump last commit: %w", err)
	}
	badSnap, err := dumpSince(ckpt.Primary(), goodSnap)
	if err != nil {
		return nil, fmt.Errorf("analyze: dump primary: %w", err)
	}
	sm := g.SystemMap()
	return &Dumps{
		LastGood:  volatility.NewDump(goodSnap, g.Profile(), sm),
		AuditFail: volatility.NewDump(badSnap, g.Profile(), sm),
	}, nil
}

// CaptureAttackDump snapshots the primary after replay paused it at the
// attack point. No commit has happened since the last-good dump, so it
// derives from that dump over the pages the dirty log names: those the
// audited epoch wrote, restored by the rollback, and those the replay
// wrote.
func (d *Dumps) CaptureAttackDump(g *guestos.Guest) error {
	snap, err := dumpSince(g.Domain(), d.LastGood.Snapshot)
	if err != nil {
		return fmt.Errorf("analyze: dump at attack: %w", err)
	}
	d.AtAttack = volatility.NewDump(snap, g.Profile(), g.SystemMap())
	return nil
}

// dumpSince snapshots dom from the image of its last commit and the
// pages written since, which its dirty log names.
func dumpSince(dom *hv.Domain, committed *hv.Snapshot) (*hv.Snapshot, error) {
	return dom.DumpDirty(committed, dom.DirtyPages(make([]mem.PFN, 0, dom.DirtyCount())))
}
