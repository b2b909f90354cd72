package hv

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/mem"
)

// Regression test: UnwatchPage must remove only the named access kinds.
// The old implementation deleted the whole watch entry, so two
// subsystems co-registering on one page (e.g. the honeypot's write
// watch and a replay read watch) would tear each other's watches down
// on the first release.
func TestUnwatchPageKindMasked(t *testing.T) {
	_, d := newTestDomain(t, 4)
	if err := d.WatchPage(2, AccessWrite); err != nil {
		t.Fatalf("WatchPage(write): %v", err)
	}
	if err := d.WatchPage(2, AccessRead); err != nil {
		t.Fatalf("WatchPage(read): %v", err)
	}
	if d.WatchCount() != 1 {
		t.Fatalf("WatchCount = %d, want 1 (one page, two kinds)", d.WatchCount())
	}

	// Releasing the read watch must leave the write watch armed.
	d.UnwatchPage(2, AccessRead)
	if d.WatchCount() != 1 {
		t.Fatalf("WatchCount after read unwatch = %d, want 1", d.WatchCount())
	}
	if err := d.ReadPhys(2*mem.PageSize, make([]byte, 1)); err != nil {
		t.Fatalf("ReadPhys: %v", err)
	}
	if evs := d.PollEvents(); len(evs) != 0 {
		t.Fatalf("read fired %d events after its watch was released", len(evs))
	}
	if err := d.WritePhys(2*mem.PageSize, []byte{1}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if evs := d.PollEvents(); len(evs) != 1 || evs[0].Access != AccessWrite {
		t.Fatalf("write watch lost with the read watch: events = %+v", evs)
	}

	d.UnwatchPage(2, AccessWrite)
	if d.WatchCount() != 0 {
		t.Fatalf("WatchCount after full unwatch = %d, want 0", d.WatchCount())
	}
}

// Per-kind registrations are refcounted: two registrations of the same
// kind need two releases.
func TestWatchPageRefcounted(t *testing.T) {
	_, d := newTestDomain(t, 4)
	for i := 0; i < 2; i++ {
		if err := d.WatchPage(1, AccessWrite); err != nil {
			t.Fatalf("WatchPage #%d: %v", i+1, err)
		}
	}
	d.UnwatchPage(1, AccessWrite)
	if err := d.WritePhys(mem.PageSize, []byte{1}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if evs := d.PollEvents(); len(evs) != 1 {
		t.Fatalf("watch dropped after 1 of 2 releases: %d events", len(evs))
	}
	d.UnwatchPage(1, AccessWrite)
	if err := d.WritePhys(mem.PageSize, []byte{2}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if evs := d.PollEvents(); len(evs) != 0 {
		t.Fatalf("watch survived both releases: %d events", len(evs))
	}
	// Over-releasing is a no-op, not a panic or negative count.
	d.UnwatchPage(1, AccessWrite)
	if d.WatchCount() != 0 {
		t.Fatalf("WatchCount = %d after over-release, want 0", d.WatchCount())
	}
}

// A write fault is single-shot: the first write to an armed page takes
// it, counted, and consumes the arm; the write lands as any other does.
func TestWriteFaultSingleShotPreWrite(t *testing.T) {
	_, d := newTestDomain(t, 4)
	if err := d.WritePhys(2*mem.PageSize, []byte("old!")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if err := d.ArmWriteFaults([]mem.PFN{1, 2}); err != nil {
		t.Fatalf("ArmWriteFaults: %v", err)
	}
	if d.WatchCount() != 2 {
		t.Fatalf("WatchCount = %d, want 2 armed pages", d.WatchCount())
	}

	if err := d.WritePhys(2*mem.PageSize, []byte("new!")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if got := d.WriteFaults(); got != 1 {
		t.Fatalf("WriteFaults = %d, want 1", got)
	}
	got := make([]byte, 4)
	if err := d.ReadPhys(2*mem.PageSize, got); err != nil || !bytes.Equal(got, []byte("new!")) {
		t.Fatalf("page 2 reads %q (err %v) after the faulting write, want %q", got, err, "new!")
	}

	// The arm was consumed: a second write does not re-fault.
	if err := d.WritePhys(2*mem.PageSize, []byte("more")); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if got := d.WriteFaults(); got != 1 {
		t.Fatalf("second write re-faulted: WriteFaults = %d", got)
	}
	if d.WatchCount() != 1 {
		t.Fatalf("WatchCount = %d, want 1 (page 1 still armed)", d.WatchCount())
	}

	// Disarming the batch reports only the arm still outstanding.
	if n := d.DisarmWriteFaults([]mem.PFN{1, 2}); n != 1 {
		t.Fatalf("DisarmWriteFaults = %d, want 1", n)
	}
	if d.WatchCount() != 0 {
		t.Fatalf("WatchCount = %d after disarm, want 0", d.WatchCount())
	}
}

// Arming is all-or-nothing and one hypercall per batch.
func TestArmWriteFaultsBatch(t *testing.T) {
	h, d := newTestDomain(t, 4)
	h.ResetCalls()
	if err := d.ArmWriteFaults([]mem.PFN{0, 1, 99}); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("ArmWriteFaults(bad pfn) = %v, want ErrBadAddress", err)
	}
	if d.WatchCount() != 0 {
		t.Fatalf("failed arm left %d pages protected", d.WatchCount())
	}
	if err := d.ArmWriteFaults([]mem.PFN{0, 1, 2, 3}); err != nil {
		t.Fatalf("ArmWriteFaults: %v", err)
	}
	d.DisarmWriteFaults([]mem.PFN{0, 1, 2, 3})
	if calls := h.Calls().EventConfig; calls != 2 {
		t.Fatalf("EventConfig calls = %d, want 2 (one per batch)", calls)
	}
}

// A page can carry an event watch and a write-fault arm at once: the
// fault is consumed without disturbing the watch, and vice versa.
func TestWatchAndFaultCoexist(t *testing.T) {
	_, d := newTestDomain(t, 4)
	if err := d.WatchPage(2, AccessWrite); err != nil {
		t.Fatalf("WatchPage: %v", err)
	}
	if err := d.ArmWriteFaults([]mem.PFN{2}); err != nil {
		t.Fatalf("ArmWriteFaults: %v", err)
	}
	if err := d.WritePhys(2*mem.PageSize, []byte{1}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if got := d.WriteFaults(); got != 1 {
		t.Fatalf("write faults taken = %d, want 1", got)
	}
	if evs := d.PollEvents(); len(evs) != 1 {
		t.Fatalf("watch event count = %d, want 1", len(evs))
	}
	// The fault is spent but the watch remains.
	if err := d.WritePhys(2*mem.PageSize, []byte{2}); err != nil {
		t.Fatalf("WritePhys: %v", err)
	}
	if got := d.WriteFaults(); got != 1 {
		t.Fatalf("consumed fault re-fired: %d", got)
	}
	if evs := d.PollEvents(); len(evs) != 1 {
		t.Fatalf("watch lost after fault consumption: %d events", len(evs))
	}
	if d.WatchCount() != 1 {
		t.Fatalf("WatchCount = %d, want 1", d.WatchCount())
	}
	// Disarming faults never touches event watches.
	if n := d.DisarmWriteFaults([]mem.PFN{2}); n != 0 {
		t.Fatalf("DisarmWriteFaults = %d, want 0 (already consumed)", n)
	}
	if d.WatchCount() != 1 {
		t.Fatalf("disarm dropped the event watch: WatchCount = %d", d.WatchCount())
	}
}

// Race hammer: watches armed and released, write faults armed and
// delivered, and the event ring polled, all concurrently with guest
// writes. Run under -race this guards the watch table's locking.
func TestWatchFaultConcurrency(t *testing.T) {
	const pages = 64
	_, d := newTestDomain(t, pages)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pfn := mem.PFN(w * pages / 4)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 4 {
				case 0:
					_ = d.WatchPage(pfn+mem.PFN(i%16), AccessWrite)
				case 1:
					_ = d.ArmWriteFaults([]mem.PFN{pfn + mem.PFN(i%16)})
				case 2:
					d.UnwatchPage(pfn+mem.PFN(i%16), AccessWrite)
				case 3:
					d.DisarmWriteFaults([]mem.PFN{pfn + mem.PFN(i%16)})
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				d.PollEvents()
				_ = d.WriteFaults()
				_ = d.WatchCount()
			}
		}
	}()
	buf := []byte{0xAB}
	for i := 0; i < 20000; i++ {
		if err := d.WritePhys(uint64(i%pages)*mem.PageSize+uint64(i%128), buf); err != nil {
			t.Fatalf("WritePhys: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}
