package guestos

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/hv"
)

// deepCopyState copies a State and every process in it, so later writes
// through shared pointers cannot reach the copy.
func deepCopyState(s *State) *State {
	c := *s
	c.procs = make(map[uint32]*Process, len(s.procs))
	for pid, p := range s.procs {
		c.procs[pid] = cloneProcess(p)
	}
	return &c
}

// cowCapture is one CloneState result, the deep copy made when it was
// taken, and the domain memory that belongs with it.
type cowCapture struct {
	st, ref *State
	mem     *hv.Snapshot
}

// cowGuest is a guest under test plus what it shares with its last
// State: base is the State it last cloned or restored, touched the PIDs
// it has asked to write since.
type cowGuest struct {
	g       *Guest
	base    *State
	touched map[uint32]bool
}

// maxCowCaptures bounds how many recent States a run keeps checking and
// restoring; older ones are dropped.
const maxCowCaptures = 12

type cowRig struct {
	t     *testing.T
	rng   *rand.Rand
	cfg   BootConfig
	doms  [2]*hv.Domain
	gs    [2]*cowGuest // gs[1] is nil until the first Adopt
	caps  []cowCapture
	steps int
}

func newCowRig(t *testing.T, seed int64) *cowRig {
	t.Helper()
	r := &cowRig{t: t, rng: rand.New(rand.NewSource(seed)), cfg: BootConfig{Profile: LinuxProfile(), Seed: 42}}
	h := hv.New(2*testPages + 8)
	for i := range r.doms {
		dom, err := h.CreateDomain(fmt.Sprintf("cow%d", i), testPages)
		if err != nil {
			t.Fatalf("CreateDomain: %v", err)
		}
		r.doms[i] = dom
	}
	g, err := Boot(r.doms[0], r.cfg)
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	r.gs[0] = &cowGuest{g: g, touched: map[uint32]bool{}}
	r.gs[0].base = r.capture(r.gs[0], 0)
	return r
}

// capture clones the guest's state, checks that every process it did
// not ask to write since its last State is still that State's pointer,
// and records the State with a deep copy and its memory.
func (r *cowRig) capture(cg *cowGuest, dom int) *State {
	r.t.Helper()
	st := cg.g.CloneState()
	if cg.base != nil {
		for pid, p := range cg.base.procs {
			if !cg.touched[pid] && st.procs[pid] != p {
				r.t.Fatalf("step %d: pid %d untouched since the last State but not pointer-shared", r.steps, pid)
			}
		}
	}
	snap, err := r.doms[dom].DumpMemory()
	if err != nil {
		r.t.Fatalf("DumpMemory: %v", err)
	}
	if len(r.caps) == maxCowCaptures {
		r.caps = r.caps[1:]
	}
	r.caps = append(r.caps, cowCapture{st: st, ref: deepCopyState(st), mem: snap})
	cg.base, cg.touched = st, map[uint32]bool{}
	return st
}

// restore loads capture c, memory and State, into guest slot i: by
// Adopt into an empty slot, else by Adopt or RestoreState at random.
func (r *cowRig) restore(i int, c cowCapture) {
	r.t.Helper()
	if err := r.doms[i].RestoreMemory(c.mem, allPages(r.doms[i])); err != nil {
		r.t.Fatalf("RestoreMemory: %v", err)
	}
	if r.gs[i] == nil || r.rng.Intn(2) == 0 {
		g, err := Adopt(r.doms[i], r.cfg, c.st)
		if err != nil {
			r.t.Fatalf("Adopt: %v", err)
		}
		r.gs[i] = &cowGuest{g: g}
	} else {
		r.gs[i].g.RestoreState(c.st)
	}
	r.gs[i].base, r.gs[i].touched = c.st, map[uint32]bool{}
}

func (r *cowRig) pickPID(g *Guest) uint32 {
	pids := make([]uint32, 0, len(g.procs))
	for pid := range g.procs {
		pids = append(pids, pid)
	}
	if len(pids) == 0 {
		return 1
	}
	sortU32(pids)
	return pids[r.rng.Intn(len(pids))]
}

func (r *cowRig) pickVA(g *Guest, pid uint32) uint64 {
	p := g.procs[pid]
	if p == nil || len(p.allocs) == 0 || r.rng.Intn(8) == 0 {
		return g.prof.UserVirtBase + uint64(r.rng.Intn(4096))
	}
	vas := make([]uint64, 0, len(p.allocs))
	for va := range p.allocs {
		vas = append(vas, va)
	}
	sort.Slice(vas, func(a, b int) bool { return vas[a] < vas[b] })
	return vas[r.rng.Intn(len(vas))]
}

// step runs one random op on one guest. Op errors (dead PIDs, full
// heaps, bad frees) are part of the sequence, not test failures.
func (r *cowRig) step() {
	i := 0
	if r.gs[1] != nil && r.rng.Intn(2) == 1 {
		i = 1
	}
	cg := r.gs[i]
	g := cg.g
	pid := r.pickPID(g)
	switch k := r.rng.Intn(14); k {
	case 0:
		_, _ = g.StartProcess(fmt.Sprintf("p%d", r.steps), uint32(r.rng.Intn(3)), 2+r.rng.Intn(4))
	case 1, 2, 3:
		cg.touched[pid] = true
		_, _ = g.Malloc(pid, 1+r.rng.Intn(200))
	case 4, 5:
		cg.touched[pid] = true
		_ = g.Free(pid, r.pickVA(g, pid))
	case 6:
		data := make([]byte, 1+r.rng.Intn(24))
		r.rng.Read(data)
		_ = g.WriteUser(pid, r.pickVA(g, pid), data)
	case 7:
		cg.touched[pid] = true
		_ = g.ExitProcess(pid)
	case 8:
		cg.touched[pid] = true
		_ = g.HideProcess(pid)
	case 9:
		cg.touched[pid] = true
		_ = g.UnhideProcess(pid)
	case 10:
		cg.touched[pid] = true
		_ = g.CloakProcess(pid)
	case 11, 12:
		r.capture(cg, i)
	case 13:
		c := r.caps[r.rng.Intn(len(r.caps))]
		if r.rng.Intn(2) == 0 {
			r.restore(0, c)
		} else {
			r.restore(1, c)
		}
	}
	r.steps++
}

// check holds every kept State equal to its deep copy.
func (r *cowRig) check() {
	r.t.Helper()
	for n, c := range r.caps {
		if !reflect.DeepEqual(c.st, c.ref) {
			r.t.Fatalf("step %d: State %d changed after capture", r.steps, n)
		}
	}
}

// TestCopyOnWriteStateProperty runs seeded random guest ops on two
// guests that clone, restore and adopt each other's States, and holds
// every captured State equal to a deep copy taken at capture, after
// every op. A process a guest did not ask to write between two
// CloneStates must be the same pointer in both.
func TestCopyOnWriteStateProperty(t *testing.T) {
	seeds, steps := int64(8), 300
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(1); seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := newCowRig(t, seed)
			for range steps {
				r.step()
				r.check()
			}
		})
	}
}

// TestAdoptDoesNotWriteSharedProcess is the generation-collision
// regression: a second guest adopting a State must copy the State's
// processes before writing them, even though it has cloned nothing
// itself. With generations counted per guest, the adopting guest's
// first generation equalled the processes' stamp and Malloc wrote the
// State's process in place.
func TestAdoptDoesNotWriteSharedProcess(t *testing.T) {
	g1 := bootLinux(t)
	pid, err := g1.StartProcess("app", 0, 8)
	if err != nil {
		t.Fatalf("StartProcess: %v", err)
	}
	if _, err := g1.Malloc(pid, 16); err != nil {
		t.Fatalf("Malloc: %v", err)
	}
	s2 := g1.CloneState()
	snap, err := g1.Domain().DumpMemory()
	if err != nil {
		t.Fatalf("DumpMemory: %v", err)
	}
	h := hv.New(testPages + 8)
	dom2, err := h.CreateDomain("adopter", testPages)
	if err != nil {
		t.Fatalf("CreateDomain: %v", err)
	}
	if err := dom2.RestoreMemory(snap, allPages(dom2)); err != nil {
		t.Fatalf("RestoreMemory: %v", err)
	}
	g2, err := Adopt(dom2, BootConfig{Profile: LinuxProfile(), Seed: 42}, s2)
	if err != nil {
		t.Fatalf("Adopt: %v", err)
	}
	if _, err := g2.Malloc(pid, 32); err != nil {
		t.Fatalf("Malloc on adopted guest: %v", err)
	}
	if n := len(s2.procs[pid].allocs); n != 1 {
		t.Fatalf("adopted State's pid %d has %d allocations after the adopter's Malloc, want 1", pid, n)
	}
	if n := g2.LiveAllocs(pid); n != 2 {
		t.Fatalf("adopter's pid %d has %d allocations, want 2", pid, n)
	}
	if n := g1.LiveAllocs(pid); n != 1 {
		t.Fatalf("original guest's pid %d has %d allocations, want 1", pid, n)
	}
}
