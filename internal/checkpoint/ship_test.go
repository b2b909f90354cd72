package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/fault"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/remus"
)

// newPipelined returns a Workers=2, delta+dedup checkpointer with remote
// replication enabled: the configuration whose ship leaves the pause.
func newPipelined(tb testing.TB, pages int) (*hv.Hypervisor, *hv.Domain, *Checkpointer) {
	tb.Helper()
	h := hv.New(4*pages + 8)
	d, err := h.CreateDomain("vm", pages)
	if err != nil {
		tb.Fatalf("CreateDomain: %v", err)
	}
	c, err := NewWithParams(h, d, Params{Opt: cost.Full, Workers: 2, Remus: remus.ModeDeltaDedup})
	if err != nil {
		tb.Fatalf("NewWithParams: %v", err)
	}
	tb.Cleanup(func() { _ = c.Close() })
	if err := c.EnableRemoteReplication([]byte("0123456789abcdef")); err != nil {
		tb.Fatalf("EnableRemoteReplication: %v", err)
	}
	return h, d, c
}

// mixedEpoch rewrites a third of the pages so the stream carries every
// record kind: small stamps, full rewrites, zero fills and copies.
func mixedEpoch(tb testing.TB, d *hv.Domain, rng *rand.Rand) {
	tb.Helper()
	page := make([]byte, mem.PageSize)
	for pfn := 0; pfn < d.Pages(); pfn++ {
		var data []byte
		switch rng.Intn(12) {
		case 0:
			data = page[:8]
			rng.Read(data)
		case 1:
			data = page
			rng.Read(data)
		case 2:
			data = make([]byte, mem.PageSize)
		case 3:
			data = page
			if err := d.ReadPhys(uint64(rng.Intn(d.Pages()))*mem.PageSize, data); err != nil {
				tb.Fatalf("ReadPhys: %v", err)
			}
		default:
			continue
		}
		if err := d.WritePhys(uint64(pfn)*mem.PageSize, data); err != nil {
			tb.Fatalf("WritePhys pfn %d: %v", pfn, err)
		}
	}
}

// Per-commit replication accounting under pipelining is exact and a
// function of the commit sequence: commit N reports the shipment commit
// N-maxShipsInFlight enqueued, Close reports the tail, and the sum is
// the conduit's own cumulative accounting.
func TestPipelinedAccountingExact(t *testing.T) {
	h, d, c := newPipelined(t, parallelTestPages)
	inj := fault.NewInjector()
	h.InjectFaults(inj)
	conduit := c.remoteConduit
	base := conduit.Stats() // the initial full sync belongs to no commit

	// Send 3 from now (commit 3's shipment) fails once and is retried.
	const faulted = 3
	inj.Fail(remus.FaultSend, faulted, 1, true)

	const commits = 9
	rng := rand.New(rand.NewSource(31))
	var sum cost.ReplicationCounts
	retries := 0
	for n := 1; n <= commits; n++ {
		mixedEpoch(t, d, rng)
		counts, err := c.Checkpoint()
		if err != nil {
			t.Fatalf("checkpoint %d: %v", n, err)
		}
		rep := c.LastReport()
		wantAcked, wantInFlight, wantRetries := 0, n, 0
		if n > maxShipsInFlight {
			wantAcked, wantInFlight = 1, maxShipsInFlight
		}
		if n == faulted+maxShipsInFlight {
			wantRetries = 1
		}
		if rep.RemoteAcked != wantAcked || rep.RemoteInFlight != wantInFlight || rep.RemoteRetries != wantRetries {
			t.Fatalf("commit %d: acked=%d in-flight=%d retries=%d, want %d/%d/%d",
				n, rep.RemoteAcked, rep.RemoteInFlight, rep.RemoteRetries, wantAcked, wantInFlight, wantRetries)
		}
		if got := counts.RemoteRepl.Batches; got != wantAcked {
			t.Fatalf("commit %d: RemoteRepl carries %d batches, want %d", n, got, wantAcked)
		}
		sum.Add(counts.RemoteRepl)
		retries += rep.RemoteRetries
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	tail := c.Drained()
	if tail.Acked != maxShipsInFlight || tail.Repl.Batches != maxShipsInFlight {
		t.Fatalf("Close drained %+v, want the %d shipments left in the window", tail, maxShipsInFlight)
	}
	sum.Add(tail.Repl)
	want := base
	want.Add(sum)
	if got := conduit.Stats(); got != want {
		t.Fatalf("initial sync + per-commit replication + drain = %+v\nconduit's cumulative stats                      = %+v", want, got)
	}
	if sum.DeltaPages == 0 || sum.ZeroPages == 0 || sum.DupPages == 0 || sum.RawPages == 0 {
		t.Fatalf("epochs did not exercise every record kind: %+v", sum)
	}
	if retries+tail.Retries != 1 {
		t.Fatalf("retries reported %d times, want exactly once", retries+tail.Retries)
	}
	if !domainsEqual(t, c.Backup(), c.Remote()) {
		t.Fatal("remote did not converge to the backup")
	}
}

// manualShipper takes the shipper goroutine's place: the test moves each
// shipment from the queue to the results by hand, so nothing but the
// commit path allocates while allocations are counted.
func manualShipper(c *Checkpointer) (ship func() *shipment, stop func()) {
	in := make(chan *shipment, maxShipsInFlight)
	out := make(chan shipResult, maxShipsInFlight)
	done := make(chan struct{})
	c.shipCh, c.shipRes, c.shipDone = in, out, done
	ship = func() *shipment {
		s := <-in
		out <- shipResult{}
		return s
	}
	stop = func() {
		for len(in) > 0 {
			ship()
		}
		close(done)
	}
	return ship, stop
}

// lastShipment is the shipment the last enqueue put in the window.
func lastShipment(c *Checkpointer) *shipment {
	return &c.ships[(c.shipNext-1)%maxShipsInFlight]
}

// Once the window has filled, a pipelined enqueue takes the pages the
// shipment it settles gave back to the primary's spares: no allocation
// per epoch beyond the shard closure, and no more pages out than the
// window holds.
func TestEnqueueShipmentRecyclesBuffers(t *testing.T) {
	_, _, c := newPipelined(t, parallelTestPages)
	ship, stop := manualShipper(c)
	defer stop()

	dirty := make([]mem.PFN, parallelTestPages/2)
	for i := range dirty {
		dirty[i] = mem.PFN(2 * i)
	}
	pages := map[*mem.Page]bool{}
	enqueue := func(dirty []mem.PFN) {
		if c.inFlight == maxShipsInFlight {
			ship()
		}
		if !c.enqueueShipment(dirty) {
			t.Fatal("enqueueShipment degraded")
		}
		for _, p := range lastShipment(c).pages {
			pages[p] = true
		}
	}
	for i := 0; i < 10; i++ {
		enqueue(dirty)
	}
	if want := maxShipsInFlight * len(dirty); len(pages) != want {
		t.Fatalf("10 shipments of %d pages used %d snapshot pages, want the window's %d", len(dirty), len(pages), want)
	}
	// A single page takes the snapshot inline (no worker goroutines), so
	// all that is left to allocate is the shard closure every runSharded
	// call makes; the enqueue itself must add nothing to it.
	one := dirty[:1]
	enqueue(one)
	enqueue(one)
	closure := testing.AllocsPerRun(50, func() {
		_ = c.runSharded(len(one), func(lo, hi int) error { _ = one[lo:hi]; return nil })
	})
	if avg := testing.AllocsPerRun(50, func() { enqueue(one) }); avg > closure {
		t.Fatalf("steady-state enqueueShipment allocates %.1f times per epoch, want only runSharded's %.1f", avg, closure)
	}
}

// BenchmarkPipelinedShip is one steady-state epoch of the pipelined
// replication path end to end: 522 stamped pages committed, snapshotted,
// handed to the shipper, encoded, piped, applied and acknowledged, with
// the window's backpressure included.
func BenchmarkPipelinedShip(b *testing.B) {
	const pages, dirtyPages = 2048, 522
	_, d, c := newPipelined(b, pages)
	rng := rand.New(rand.NewSource(1))
	var stamp [8]byte
	epoch := func() {
		for i := 0; i < dirtyPages; i++ {
			rng.Read(stamp[:])
			if err := d.WritePhys(uint64(i*3)*mem.PageSize+uint64(rng.Intn(mem.PageSize-8)), stamp[:]); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := c.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 2*maxShipsInFlight; i++ {
		epoch() // fill the window and the spares
	}
	b.SetBytes(dirtyPages * mem.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		epoch()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*dirtyPages)/b.Elapsed().Seconds(), "pages/s")
	if rep := c.LastReport(); rep.RemoteDegraded {
		b.Fatalf("replication degraded: %v", rep.Warnings)
	}
}

// Dirty counts that oscillate below the largest epoch's take their
// snapshot pages from what settled shipments gave back to the primary's
// spares, and their lists from the window's slots: after the window has
// held two epochs at the peak, no page and no list is allocated, and the
// snapshot holds the committed bytes. An allocation shows as a page or a
// list never seen before, so nothing else running in the test binary can
// move the count.
func TestShipmentBufferAllocsOverOscillatingDirtyCounts(t *testing.T) {
	const low, high, cycles = 320, 500, 60
	_, d, c := newPipelined(t, high)
	ship, stop := manualShipper(c)
	defer stop()
	pfns := make([]mem.PFN, high)
	for i := range pfns {
		pfns[i] = mem.PFN(i)
		if err := d.WritePhys(uint64(i)*mem.PageSize, []byte{byte(i), byte(i >> 8), 1}); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
	}
	seen := map[*mem.Page]bool{}
	lists := map[any]bool{}
	allocs := 0
	cycle := func(n int) {
		if c.inFlight == maxShipsInFlight {
			ship()
		}
		if !c.enqueueShipment(pfns[:n]) {
			t.Fatal("enqueueShipment degraded")
		}
		s := lastShipment(c)
		if len(s.pages) != n || len(s.pfns) != n {
			t.Fatalf("shipment for %d pages holds %d pages, %d pfns", n, len(s.pages), len(s.pfns))
		}
		for _, list := range []any{&s.pfns[0], &s.pages[0]} {
			if !lists[list] {
				lists[list], allocs = true, allocs+1
			}
		}
		for i, p := range s.pages {
			if !seen[p] {
				seen[p], allocs = true, allocs+1
			}
			if p[0] != byte(i) || p[1] != byte(i>>8) || p[2] != 1 {
				t.Fatalf("shipment page %d does not hold pfn %d's bytes", i, s.pfns[i])
			}
		}
	}
	cycle(high)
	cycle(high)
	allocs = 0
	for k := 0; k < cycles; k++ {
		cycle(low + k*(high-low)/cycles)
		cycle(high - k)
	}
	if allocs != 0 {
		t.Errorf("%d pages and lists allocated over %d oscillating epochs below the peak, want 0", allocs, 2*cycles)
	}
}

// With the pipelined shipper live (Workers=2, the window full), the guest
// writes and commits while shipments travel, and no page a shipment holds
// is handed to a writer before its ack: no frame of the primary holds
// one, and each keeps the bytes of the commit it snapshotted, through
// the guest's copies on write that take pages from the same spares. The
// window is drained every few commits, and then the replica holds the
// committed image exactly. Run under -race (make race-share), it also
// shows the shipper reads no page a writer touches.
func TestShipmentPagesHeldUntilAck(t *testing.T) {
	const rounds, drainEvery = 24, 6
	h, d, c := newPipelined(t, parallelTestPages)
	if err := c.EnableCoW(); err != nil {
		t.Fatalf("EnableCoW: %v", err)
	}
	m := h.Machine()
	rng := rand.New(rand.NewSource(9))
	var images []*hv.Snapshot
	checkInFlight := func(when string) {
		t.Helper()
		inFrames := make(map[*mem.Page]bool, d.Pages())
		for pfn := range d.Pages() {
			inFrames[pageOf(t, d, m, mem.PFN(pfn))] = true
		}
		for k := 0; k < c.inFlight; k++ {
			s := &c.ships[(c.shipNext-1-k)%maxShipsInFlight]
			image := images[len(images)-1-k]
			for i, p := range s.pages {
				if inFrames[p] {
					t.Fatalf("%s: a page shipment -%d holds for pfn %d is a primary frame's", when, k, s.pfns[i])
				}
				want, err := image.ReadPage(s.pfns[i])
				if err != nil {
					t.Fatalf("ReadPage: %v", err)
				}
				if !bytes.Equal(p[:], want) {
					t.Fatalf("%s: shipment -%d's page for pfn %d changed before its ack", when, k, s.pfns[i])
				}
			}
		}
	}
	for n := 1; n <= rounds; n++ {
		mixedEpoch(t, d, rng)
		checkInFlight(fmt.Sprintf("round %d, after the guest's writes", n))
		if _, err := c.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", n, err)
		}
		if rep := c.LastReport(); rep.RemoteDegraded {
			t.Fatalf("checkpoint %d: replication degraded: %v", n, rep.Warnings)
		}
		image, err := c.Committed()
		if err != nil {
			t.Fatalf("Committed: %v", err)
		}
		images = append(images, image)
		checkInFlight(fmt.Sprintf("round %d, after the commit", n))
		if n%drainEvery == 0 {
			if err := c.drainShipper(); err != nil {
				t.Fatalf("drain after round %d: %v", n, err)
			}
			remote, err := c.Remote().DumpMemory()
			if err != nil {
				t.Fatalf("DumpMemory: %v", err)
			}
			if !bytes.Equal(remote.Bytes(), image.Bytes()) {
				t.Fatalf("round %d: the drained replica is not the committed image", n)
			}
		}
	}
}
