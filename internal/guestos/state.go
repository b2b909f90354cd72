package guestos

import (
	"maps"
	"slices"
	"sync/atomic"
)

// State is an opaque snapshot of the guest kernel's Go-side bookkeeping
// (allocator cursors, process table, slot maps). A CRIMES checkpoint is
// a domain memory snapshot plus a State; restoring both reproduces the
// guest exactly, which is what makes epoch replay deterministic.
//
// A State is immutable once CloneState returns it, so one snapshot can
// be shared by every reader of a commit. Its process table is a fresh
// map, but the *Process values in it are shared copy-on-write: with the
// guest it was taken from, with earlier and later States, and with any
// guest that RestoreStates or Adopts it. Every guest writes a process
// only through writable, which copies a process whose generation is not
// the guest's own, so no write ever reaches a process a State holds.
type State struct {
	now          uint64
	nextPID      uint32
	nextFreePage int
	canaryHint   int
	opSeq        uint64
	taskSlots    [MaxTasks]bool
	moduleSlots  [MaxModules]bool
	sockSlots    [MaxSockets]bool
	fileSlots    [MaxFiles]bool
	regSlots     [MaxRegKeys]bool
	procs        map[uint32]*Process
}

// generations hands out ownership generations. It is shared by every
// guest in the process, so no two guests — and no guest before and
// after a snapshot — ever hold the same generation: a process stamped
// with a generation that is no longer any guest's is shared and
// read-only.
var generations atomic.Uint64

// newGeneration retires the guest's current generation: every process
// the guest holds becomes shared, and is copied on its next write.
func (g *Guest) newGeneration() { g.gen = generations.Add(1) }

// CloneState captures the guest's Go-side bookkeeping. It copies the
// process table's pointers, not the processes: afterwards the guest and
// the State share every process until the guest next writes one.
func (g *Guest) CloneState() *State {
	s := &State{
		now:          g.now,
		nextPID:      g.nextPID,
		nextFreePage: g.nextFreePage,
		canaryHint:   g.canaryHint,
		opSeq:        g.opSeq,
		taskSlots:    g.taskSlots,
		moduleSlots:  g.moduleSlots,
		sockSlots:    g.sockSlots,
		fileSlots:    g.fileSlots,
		regSlots:     g.regSlots,
		procs:        maps.Clone(g.procs),
	}
	g.newGeneration()
	return s
}

// RestoreState replaces the guest's Go-side bookkeeping with a snapshot.
// The caller must restore the matching domain memory snapshot alongside.
// The guest shares the snapshot's processes and copies each one the
// first time it writes it.
func (g *Guest) RestoreState(s *State) {
	g.now = s.now
	g.nextPID = s.nextPID
	g.nextFreePage = s.nextFreePage
	g.canaryHint = s.canaryHint
	g.opSeq = s.opSeq
	g.taskSlots = s.taskSlots
	g.moduleSlots = s.moduleSlots
	g.sockSlots = s.sockSlots
	g.fileSlots = s.fileSlots
	g.regSlots = s.regSlots
	g.procs = maps.Clone(s.procs)
	g.newGeneration()
	g.epochOps = g.epochOps[:0]
}

// writable returns a live or hidden process the guest may modify in
// place: the guest's own copy, made on the first write since the
// process was last shared with a State.
func (g *Guest) writable(pid uint32) (*Process, error) {
	p, err := g.Process(pid)
	if err != nil {
		return nil, err
	}
	if p.gen != g.gen {
		p = cloneProcess(p)
		p.gen = g.gen
		g.procs[pid] = p
	}
	return p, nil
}

func cloneProcess(p *Process) *Process {
	c := *p
	c.freeBlocks = slices.Clone(p.freeBlocks)
	c.allocs = maps.Clone(p.allocs)
	return &c
}
