package core

import (
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/guestos"
)

// TestParallelEpochsMatchSerialDetection runs the same workload through
// a serial and a 4-worker controller: both must release the same
// outputs, find nothing on clean epochs, and catch the same attack —
// and the parallel controller's virtual pause must be no larger than
// the serial one's.
func TestParallelEpochsMatchSerialDetection(t *testing.T) {
	run := func(workers int) (pause time.Duration, packets int, incident bool) {
		ctl, out := newController(t, guestos.LinuxProfile(), Config{
			EpochInterval: 50 * time.Millisecond,
			Modules:       detect.DefaultModules(),
			Workers:       workers,
		})
		var pid uint32
		for i := 0; i < 3; i++ {
			res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
				var err error
				if i == 0 {
					if pid, err = g.StartProcess("app", 0, 8); err != nil {
						return err
					}
				}
				if err := g.Compute(pid, 10); err != nil {
					return err
				}
				return g.SendPacket(pid, [4]byte{10, 0, 0, 1}, 80, []byte("hello"))
			})
			if err != nil {
				t.Fatalf("workers=%d epoch %d: %v", workers, i, err)
			}
			if len(res.Findings) != 0 {
				t.Fatalf("workers=%d epoch %d: unexpected findings %+v", workers, i, res.Findings)
			}
			if res.Commit.Timings.Workers != workers {
				t.Fatalf("workers=%d: commit ran with %d workers", workers, res.Commit.Timings.Workers)
			}
		}
		// Final epoch: hijack a syscall; both detectors must catch it.
		res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
			return g.HijackSyscall(3, 0xbad)
		})
		if err != nil {
			t.Fatalf("workers=%d attack epoch: %v", workers, err)
		}
		pks, _ := out.Snapshot()
		return ctl.TotalPause(), len(pks), res.Incident != nil
	}

	serialPause, serialPackets, serialIncident := run(1)
	parPause, parPackets, parIncident := run(4)
	if !serialIncident || !parIncident {
		t.Fatalf("incident: serial=%v parallel=%v, want both", serialIncident, parIncident)
	}
	if serialPackets != parPackets {
		t.Fatalf("released packets: serial=%d parallel=%d", serialPackets, parPackets)
	}
	if parPause > serialPause {
		t.Fatalf("parallel virtual pause %v exceeds serial %v", parPause, serialPause)
	}
	if parPause == serialPause {
		t.Fatalf("parallel pricing identical to serial (%v); Workers not applied", parPause)
	}
}
