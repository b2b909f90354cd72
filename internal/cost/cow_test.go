package cost

import (
	"testing"
	"time"
)

// With zero CoW counters the CoW pricing collapses to the eager
// parallel commit plus only the fixed arm-hypercall base — no per-page
// terms, no fault overhead.
func TestCheckpointCoWZeroCountsMatchesEager(t *testing.T) {
	m := Default()
	c := swaptionsCounts()
	eager := pause(m, Full, c, PauseCtx{Workers: 4})
	cow, overhead := m.Pause(Full, c, PauseCtx{Workers: 4, CoW: true, Epoch: 200 * time.Millisecond})
	if overhead != 0 {
		t.Fatalf("fault overhead = %v with zero faults, want 0", overhead)
	}
	if got, want := cow.Total()-eager.Total(), ns(m.CowArmBaseNs); got != want {
		t.Fatalf("zero-count CoW pause differs from eager by %v, want just the arm base %v", got, want)
	}
}

// Arming every dirty page removes the O(dirty bytes) memcpy from the
// pause: the CoW pause must undercut the eager pause at the Figure 4
// working set, and the delta must be the memcpy term minus the arm
// cost.
func TestCheckpointCoWRemovesCopyFromPause(t *testing.T) {
	m := Default()
	c := swaptionsCounts()
	cw := CoWCounts{ArmedPages: c.DirtyPages}
	eager := pause(m, Full, c, PauseCtx{Workers: 1})
	cow, _ := m.Pause(Full, c, PauseCtx{Workers: 1, CoW: true, CoWCounts: cw, Epoch: 200 * time.Millisecond})
	if cow.Total() >= eager.Total() {
		t.Fatalf("CoW pause %v not below eager %v with all pages armed", cow.Total(), eager.Total())
	}
	saved := eager.Copy - cow.Copy
	memcpy := ns(m.MemcpyByteNs * float64(c.BytesCopied))
	arm := ns(m.CowArmBaseNs + m.CowArmPageNs*float64(cw.ArmedPages))
	if got, want := saved, memcpy-arm; got != want {
		t.Fatalf("copy-phase saving = %v, want memcpy %v - arm %v = %v", got, memcpy, arm, want)
	}
}

// The armed-page credit clamps at zero: arming more pages than were
// counted as copied must not drive BytesCopied negative and price a
// cheaper-than-free copy phase.
func TestCheckpointCoWClampsBytes(t *testing.T) {
	m := Default()
	c := Counts{TotalPages: 1024, DirtyPages: 4, BytesCopied: 4 * 4096}
	cw := CoWCounts{ArmedPages: 100}
	local := c
	local.BytesCopied = 0
	base := pause(m, Premap, local, PauseCtx{Workers: 1})
	cow, _ := m.Pause(Premap, c, PauseCtx{Workers: 1, CoW: true, CoWCounts: cw, Epoch: time.Second})
	arm := ns(m.CowArmBaseNs + m.CowArmPageNs*float64(cw.ArmedPages))
	if got, want := cow.Copy, base.Copy+arm; got != want {
		t.Fatalf("over-armed copy phase = %v, want clamp at %v", got, want)
	}
}

// Lazy drain is free while it fits inside the epoch interval; only the
// excess extends the next pause.
func TestCheckpointCoWLazyDrainExcess(t *testing.T) {
	m := Default()
	c := Counts{TotalPages: 1 << 18, DirtyPages: 1000, BytesCopied: 1000 * 4096}
	cw := CoWCounts{ArmedPages: 1000, DrainPages: 1000}
	lazy := ns(m.MemcpyByteNs * float64(cw.DrainPages) * 4096)

	fits, _ := m.Pause(Full, c, PauseCtx{Workers: 1, CoW: true, CoWCounts: cw, Epoch: 2 * lazy})
	hidden, _ := m.Pause(Full, c, PauseCtx{Workers: 1, CoW: true, CoWCounts: CoWCounts{ArmedPages: 1000}, Epoch: 2 * lazy})
	if fits.Copy != hidden.Copy {
		t.Fatalf("drain inside the epoch extended the pause: %v vs %v", fits.Copy, hidden.Copy)
	}

	epoch := lazy / 4
	spills, _ := m.Pause(Full, c, PauseCtx{Workers: 1, CoW: true, CoWCounts: cw, Epoch: epoch})
	if got, want := spills.Copy-fits.Copy, lazy-epoch; got != want {
		t.Fatalf("drain excess charged %v, want lazy %v - epoch %v = %v", got, lazy, epoch, want)
	}
}

// Fault overhead is linear in the fault count, charged to guest time —
// it never appears in the pause phases.
func TestCheckpointCoWFaultOverhead(t *testing.T) {
	m := Default()
	c := swaptionsCounts()
	quiet, none := m.Pause(Full, c, PauseCtx{Workers: 4, CoW: true, CoWCounts: CoWCounts{ArmedPages: 10}, Epoch: 200 * time.Millisecond})
	noisy, some := m.Pause(Full, c, PauseCtx{Workers: 4, CoW: true, CoWCounts: CoWCounts{ArmedPages: 10, WriteFaults: 750}, Epoch: 200 * time.Millisecond})
	if none != 0 {
		t.Fatalf("overhead = %v with zero faults", none)
	}
	if got, want := some, ns(m.CowFaultNs*750); got != want {
		t.Fatalf("fault overhead = %v, want %v", got, want)
	}
	if quiet.Total() != noisy.Total() {
		t.Fatalf("write faults leaked into the pause: %v vs %v", quiet.Total(), noisy.Total())
	}
}

func TestCoWCountsAdd(t *testing.T) {
	var c CoWCounts
	c.Add(CoWCounts{ArmedPages: 1, WriteFaults: 2, DrainPages: 3})
	c.Add(CoWCounts{ArmedPages: 10, WriteFaults: 20, DrainPages: 30})
	if c != (CoWCounts{ArmedPages: 11, WriteFaults: 22, DrainPages: 33}) {
		t.Fatalf("Add = %+v", c)
	}
}
