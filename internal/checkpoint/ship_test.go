package checkpoint

import (
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
func manualShipper(c *Checkpointer) (ship func() shipment, stop func()) {
	in := make(chan shipment, maxShipsInFlight)
	out := make(chan shipResult, maxShipsInFlight)
	done := make(chan struct{})
	c.shipCh, c.shipRes, c.shipDone = in, out, done
	ship = func() shipment {
		s := <-in
		out <- shipResult{ship: s}
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

// Once the window has filled, a pipelined enqueue recycles the snapshot
// buffers of the shipment it settles: no allocation per epoch beyond the
// shard closure, and no more buffers alive than the window holds.
func TestEnqueueShipmentRecyclesBuffers(t *testing.T) {
	_, _, c := newPipelined(t, parallelTestPages)
	ship, stop := manualShipper(c)
	defer stop()

	dirty := make([]mem.PFN, parallelTestPages/2)
	for i := range dirty {
		dirty[i] = mem.PFN(2 * i)
	}
	buffers := map[*byte]bool{}
	enqueue := func(dirty []mem.PFN) {
		if c.inFlight == maxShipsInFlight {
			buffers[&ship().data[0]] = true
		}
		if !c.enqueueShipment(dirty) {
			t.Fatal("enqueueShipment degraded")
		}
	}
	for i := 0; i < 10; i++ {
		enqueue(dirty)
	}
	if len(buffers) != maxShipsInFlight {
		t.Fatalf("10 shipments used %d snapshot buffers, want the window's %d", len(buffers), maxShipsInFlight)
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

// A snapshot buffer far larger than the epoch needs is dropped, not
// pinned: one post-rollback full resync must not hold two guest-sized
// buffers for the rest of the session.
func TestEnqueueShipmentDropsOversizedBuffer(t *testing.T) {
	_, _, c := newPipelined(t, 8*sparePages)
	ship, stop := manualShipper(c)
	defer stop()

	if !c.enqueueShipment(c.allPFNs()) {
		t.Fatal("enqueueShipment degraded")
	}
	big := ship()
	c.settleShipment(func(ShipReport) {})
	if !c.enqueueShipment(c.allPFNs()[:1]) {
		t.Fatal("enqueueShipment degraded")
	}
	if small := ship(); cap(small.data) >= cap(big.data) {
		t.Fatalf("1-page shipment kept the %d-byte buffer of a %d-page one", cap(small.data), len(big.pfns))
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
		epoch() // fill the window and the free list
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

// A dirty count that oscillates while its peak creeps up — a few pages
// more at every high, staying within twice the first epoch — reuses one
// snapshot buffer instead of growing it to each new peak, and a buffer
// left by one huge epoch is still dropped rather than pinned. An
// allocation shows as a buffer that is not the one before, so nothing
// else running in the test binary can move the count.
func TestShipmentBufferAllocsOverOscillatingDirtyCounts(t *testing.T) {
	const low, high, cycles = 320, 500, 60
	pfns := make([]mem.PFN, 8*high)
	for i := range pfns {
		pfns[i] = mem.PFN(i)
	}
	c := &Checkpointer{}
	var data *byte
	var list *mem.PFN
	allocs := 0
	cycle := func(n int) shipment {
		s := c.newShipment(pfns[:n])
		if len(s.data) != n*mem.PageSize || len(s.pfns) != n {
			t.Fatalf("shipment for %d pages holds %d bytes, %d pfns", n, len(s.data), len(s.pfns))
		}
		if &s.data[0] != data {
			data, allocs = &s.data[0], allocs+1
		}
		if &s.pfns[0] != list {
			list, allocs = &s.pfns[0], allocs+1
		}
		c.shipFree = append(c.shipFree, s) // settled
		return s
	}
	cycle(low)
	allocs = 0
	for k := 0; k < cycles; k++ {
		cycle(low)
		cycle(high + 2*k)
	}
	if allocs != 0 {
		t.Errorf("%d buffers allocated over %d oscillating epochs with a creeping peak, want 0", allocs, 2*cycles)
	}
	cycle(len(pfns))
	if s := cycle(low / 4); cap(s.data) > 4*len(s.data)+sparePages*mem.PageSize {
		t.Errorf("a %d-page shipment after a %d-page one kept a %d-byte buffer", low/4, len(pfns), cap(s.data))
	}
}
