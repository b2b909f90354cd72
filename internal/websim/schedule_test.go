package websim

import (
	"testing"
	"time"
)

func totalDur(cycles []Cycle) time.Duration {
	var d time.Duration
	for _, c := range cycles {
		d += c.Run + c.Pause
	}
	return d
}

// With K = VMs the gate never binds: every VM keeps its captured run
// and pause lengths, staggered by i/N of the first interval.
func TestFleetScheduleUngated(t *testing.T) {
	captured := []Cycle{{Run: 200 * time.Millisecond, Pause: 4 * time.Millisecond}}
	out := FleetSchedule(Replicate(captured, 4), 4, time.Second)
	if len(out) != 4 {
		t.Fatalf("vms = %d, want 4", len(out))
	}
	for i, cycles := range out {
		offset := 200 * time.Millisecond * time.Duration(i) / 4
		if cycles[0].Run != 200*time.Millisecond+offset {
			t.Errorf("vm %d first run = %v, want stagger offset %v added", i, cycles[0].Run, offset)
		}
		for e, c := range cycles[1:] {
			if c.Pause != 0 && c.Pause != 4*time.Millisecond {
				t.Errorf("vm %d cycle %d pause = %v, want 4ms", i, e+1, c.Pause)
			}
			if c.Run != 200*time.Millisecond && e < len(cycles)-2 {
				t.Errorf("vm %d cycle %d run = %v, want exactly the captured interval", i, e+1, c.Run)
			}
		}
	}
}

// With K=1 and deliberately colliding boundaries, gate waits fold into
// run time: pauses serialize, no VM's pause shrinks, and total virtual
// time is conserved.
func TestFleetScheduleGatePressure(t *testing.T) {
	captured := []Cycle{{Run: 10 * time.Millisecond, Pause: 10 * time.Millisecond}}
	out := FleetSchedule(Replicate(captured, 4), 1, 500*time.Millisecond)
	var pauses []time.Duration
	for i, cycles := range out {
		var clock time.Duration
		for _, c := range cycles {
			clock += c.Run
			if c.Pause > 0 {
				pauses = append(pauses, clock)
				clock += c.Pause
			}
			if c.Pause != 0 && c.Pause != 10*time.Millisecond {
				t.Errorf("vm %d pause = %v, want preserved at 10ms", i, c.Pause)
			}
		}
	}
	// K=1: no two pause windows may overlap. Pause demand (4 VMs x
	// 10ms per 20ms cycle) exceeds one slot, so waits must appear.
	for i := 0; i < len(pauses); i++ {
		for j := i + 1; j < len(pauses); j++ {
			lo, hi := pauses[i], pauses[j]
			if lo > hi {
				lo, hi = hi, lo
			}
			if hi < lo+10*time.Millisecond {
				t.Fatalf("pauses overlap under K=1: %v and %v", lo, hi)
			}
		}
	}
}

func TestFleetScheduleDeterministic(t *testing.T) {
	captured := []Cycle{
		{Run: 180 * time.Millisecond, Pause: 5 * time.Millisecond},
		{Run: 220 * time.Millisecond, Pause: 3 * time.Millisecond},
	}
	a := FleetSchedule(Replicate(captured, 8), 2, 3*time.Second)
	b := FleetSchedule(Replicate(captured, 8), 2, 3*time.Second)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("vm %d: cycle counts differ", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("vm %d cycle %d diverged: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

func TestWithOutage(t *testing.T) {
	base := []Cycle{{Run: 100 * time.Millisecond, Pause: 2 * time.Millisecond}, {Run: 100 * time.Millisecond, Pause: 2 * time.Millisecond}}
	out := WithOutage(base, 1, 50*time.Millisecond)
	if out[1].Pause != 52*time.Millisecond {
		t.Fatalf("outage pause = %v, want 52ms", out[1].Pause)
	}
	if base[1].Pause != 2*time.Millisecond {
		t.Fatal("WithOutage mutated its input")
	}
}

// DriveGen replays a schedule and lands the generator exactly on the
// horizon, protection or not.
func TestDriveGenHorizon(t *testing.T) {
	g, err := NewGen(GenParams{Classes: DefaultClasses(100_000)})
	if err != nil {
		t.Fatal(err)
	}
	cycles := FleetSchedule(Replicate([]Cycle{{Run: 200 * time.Millisecond, Pause: 4 * time.Millisecond}}, 2), 1, 2*time.Second)
	DriveGen(g, cycles[1], 0, 2*time.Second)
	if g.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want exactly 2s", g.Now())
	}
}
