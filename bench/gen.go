package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"

	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/netbuf"
)

// guestLoad generates one VM's guest activity from a seed. It follows
// workload.Runner's shape (an arena of the profile's working-set size,
// the profile's distinct dirty pages per epoch, a little allocation
// churn, the epoch's compute time) but visits the arena in a seeded
// permutation and draws payload bytes from the seed, so two seeds give
// different dirty-page sequences and wire contents while every count
// that prices an epoch stays the same. The system under test sees only
// the resulting guest operations.
type guestLoad struct {
	p   vmParams
	rng *rand.Rand

	pid        uint32
	arenaVA    uint64
	arenaPages int
	perm       []int32 // seeded visiting order over the arena's pages
	cursor     int
	churn      []uint64 // live churn allocations, oldest first
	epoch      int
	noise      []byte // seeded payload pool
	page       [mem.PageSize]byte
	visits     uint64 // running hash of the arena pages written, in order

	sent *outputTally // packets handed to the guest, by epoch class
}

// Packet payloads carry a two-byte header so the deliverer can tell
// which epoch class a released packet came from.
const (
	tagClean    = 0xC1 // sent in an epoch expected to commit
	tagAttacked = 0xA7 // sent in the attacked epoch: must never be delivered
	payloadLen  = 256
)

var packetDst = [4]byte{10, 0, 0, 9}

func newGuestLoad(p vmParams, seed int64, sent *outputTally) *guestLoad {
	l := &guestLoad{p: p, rng: rand.New(rand.NewSource(seed)), sent: sent}
	l.arenaPages = int(p.spec.WSSPages) / p.scale
	if l.arenaPages < 1 {
		l.arenaPages = 1
	}
	l.perm = make([]int32, l.arenaPages)
	for i, v := range l.rng.Perm(l.arenaPages) {
		l.perm[i] = int32(v)
	}
	l.noise = make([]byte, 1<<20)
	l.rng.Read(l.noise)
	return l
}

// dirtyTarget is the number of distinct arena pages written per epoch.
func (l *guestLoad) dirtyTarget() int {
	n := l.p.spec.DirtyPages(l.p.interval) / l.p.scale
	if n < 1 {
		n = 1
	}
	if n > l.arenaPages {
		n = l.arenaPages
	}
	return n
}

// start boots the guest side: the background processes with their live
// canaries, then the benchmark process and its arena.
func (l *guestLoad) start(g *guestos.Guest) error {
	for i := 0; i < l.p.bgProcs; i++ {
		pid, err := g.StartProcess(fmt.Sprintf("svc%02d", i), 1000, 8)
		if err != nil {
			return fmt.Errorf("load: background process %d: %w", i, err)
		}
		for j := 0; j < l.p.bgCanaries; j++ {
			if _, err := g.Malloc(pid, 48+16*(j%4)); err != nil {
				return fmt.Errorf("load: background alloc: %w", err)
			}
		}
	}
	pid, err := g.StartProcess(l.p.spec.Name, 1000, l.arenaPages+3)
	if err != nil {
		return fmt.Errorf("load %s: %w", l.p.spec.Name, err)
	}
	l.pid = pid
	if l.arenaVA, err = g.Malloc(pid, l.arenaPages*mem.PageSize-64); err != nil {
		return fmt.Errorf("load %s arena: %w", l.p.spec.Name, err)
	}
	return nil
}

// usable is how much of an arena page a write may cover: the arena's
// trailing canary sits in the last 64 bytes of the last page.
const usable = mem.PageSize - 128

// runEpoch performs one epoch of guest work.
func (l *guestLoad) runEpoch(g *guestos.Guest, tag byte) error {
	if l.pid == 0 {
		if err := l.start(g); err != nil {
			return err
		}
	}
	l.epoch++
	for i, n := 0, l.dirtyTarget(); i < n; i++ {
		page := int(l.perm[l.cursor%l.arenaPages])
		l.cursor++
		l.visits = (l.visits ^ uint64(page)) * 1099511628211
		if err := l.writePage(g, page); err != nil {
			return fmt.Errorf("load %s dirty page: %w", l.p.spec.Name, err)
		}
	}
	for i := 0; i < l.p.blockWrites; i++ {
		off := l.rng.Intn(len(l.noise) - 512)
		if err := g.WriteBlock(l.pid, l.rng.Intn(l.p.diskBlocks), 0, l.noise[off:off+512]); err != nil {
			return fmt.Errorf("load %s block write: %w", l.p.spec.Name, err)
		}
	}
	allocs := int(l.p.spec.AllocsPerSec*l.p.interval.Seconds())/l.p.scale + 1
	for i := 0; i < allocs; i++ {
		if len(l.churn) > 8 {
			va := l.churn[0]
			l.churn = l.churn[1:]
			if err := g.Free(l.pid, va); err != nil {
				return fmt.Errorf("load %s free: %w", l.p.spec.Name, err)
			}
		}
		va, err := g.Malloc(l.pid, 64+(i%3)*48)
		if err != nil {
			return fmt.Errorf("load %s malloc: %w", l.p.spec.Name, err)
		}
		l.churn = append(l.churn, va)
	}
	for i := 0; i < l.p.packets; i++ {
		if err := l.sendPacket(g, tag); err != nil {
			return err
		}
	}
	return g.Compute(l.pid, int(l.p.interval.Microseconds()))
}

// writePage dirties one arena page. Without the mix it is the 8-byte
// stamp workload.Runner writes; with it the page is rewritten so the
// replication stream sees every record kind: a small delta (50 %), a
// full random page (25 %), a copy of another arena page (15 %) or zeroes
// (10 %).
func (l *guestLoad) writePage(g *guestos.Guest, page int) error {
	base := l.arenaVA + uint64(page)*mem.PageSize
	stamp := func() error {
		var b [8]byte
		binary.LittleEndian.PutUint32(b[:], uint32(l.epoch))
		binary.LittleEndian.PutUint32(b[4:], l.rng.Uint32())
		return g.WriteUser(l.pid, base+uint64((l.epoch*16)%usable), b[:])
	}
	if !l.p.mix {
		return stamp()
	}
	switch r := l.rng.Intn(100); {
	case r < 50:
		return stamp()
	case r < 75:
		off := l.rng.Intn(len(l.noise) - usable)
		return g.WriteUser(l.pid, base, l.noise[off:off+usable])
	case r < 90:
		src := l.arenaVA + uint64(l.perm[l.rng.Intn(l.arenaPages)])*mem.PageSize
		if err := g.ReadUser(l.pid, src, l.page[:usable]); err != nil {
			return err
		}
		return g.WriteUser(l.pid, base, l.page[:usable])
	default:
		for i := range l.page[:usable] {
			l.page[i] = 0
		}
		return g.WriteUser(l.pid, base, l.page[:usable])
	}
}

func (l *guestLoad) sendPacket(g *guestos.Guest, tag byte) error {
	off := l.rng.Intn(len(l.noise) - payloadLen)
	payload := l.page[:payloadLen]
	copy(payload, l.noise[off:off+payloadLen])
	payload[0], payload[1] = tag, byte(l.epoch)
	if err := g.SendPacket(l.pid, packetDst, 443, payload); err != nil {
		return fmt.Errorf("load %s packet: %w", l.p.spec.Name, err)
	}
	l.sent.add(payload)
	return nil
}

// outputTally is an order-independent summary of a set of packets:
// counts by epoch class plus a commutative content hash. The generator
// keeps one for what it sent and the deliverer one for what was
// released; the output check compares them.
type outputTally struct {
	clean, attacked atomic.Int64
	bytes           atomic.Int64
	hash            atomic.Uint64
}

func (t *outputTally) add(payload []byte) {
	if len(payload) > 0 && payload[0] == tagAttacked {
		t.attacked.Add(1)
		return
	}
	t.clean.Add(1)
	t.bytes.Add(int64(len(payload)))
	h := fnv.New64a()
	h.Write(payload)
	t.hash.Add(h.Sum64())
}

// tallySnapshot is a comparable copy of an outputTally.
type tallySnapshot struct {
	Clean, Attacked, Bytes int64
	Hash                   uint64
}

func (t *outputTally) snapshot() tallySnapshot {
	return tallySnapshot{t.clean.Load(), t.attacked.Load(), t.bytes.Load(), t.hash.Load()}
}

// tallyDeliverer is the netbuf.Deliverer every workload installs: it
// summarises released outputs instead of retaining them, so a long run
// does not grow the heap with delivered packets.
type tallyDeliverer struct {
	got   outputTally
	disks atomic.Int64
}

var _ netbuf.Deliverer = (*tallyDeliverer)(nil)

func (d *tallyDeliverer) DeliverPacket(p guestos.Packet) { d.got.add(p.Payload) }

func (d *tallyDeliverer) DeliverDisk(guestos.DiskWrite) { d.disks.Add(1) }
