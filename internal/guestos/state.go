package guestos

// State is an opaque snapshot of the guest kernel's Go-side bookkeeping
// (allocator cursors, process table, slot maps). A CRIMES checkpoint is
// a domain memory snapshot plus a State; restoring both reproduces the
// guest exactly, which is what makes epoch replay deterministic. A State
// is immutable once CloneState returns it — RestoreState and Adopt copy
// out of it — so one snapshot can be shared by every reader of a commit.
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

// CloneState captures the guest's Go-side bookkeeping.
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
		procs:        make(map[uint32]*Process, len(g.procs)),
	}
	for pid, p := range g.procs {
		s.procs[pid] = cloneProcess(p)
	}
	return s
}

// RestoreState replaces the guest's Go-side bookkeeping with a snapshot.
// The caller must restore the matching domain memory snapshot alongside.
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
	g.procs = make(map[uint32]*Process, len(s.procs))
	for pid, p := range s.procs {
		g.procs[pid] = cloneProcess(p)
	}
	g.epochOps = g.epochOps[:0]
}

func cloneProcess(p *Process) *Process {
	c := *p
	c.freeBlocks = append([]heapBlock(nil), p.freeBlocks...)
	c.allocs = make(map[uint64]allocInfo, len(p.allocs))
	for va, info := range p.allocs {
		c.allocs[va] = info
	}
	return &c
}
