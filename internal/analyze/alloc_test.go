package analyze

import (
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/cost"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/mem"
)

// The incident path costs what changed since the last commit, not the
// size of the guest: after a warm Committed, Rollback, CaptureDumps and
// CaptureAttackDump each allocate the same on a 512-page and a 4096-page
// guest, and no more bytes on the larger one.
func TestIncidentPathAllocsIndependentOfGuestSize(t *testing.T) {
	type cost3 struct{ allocs, bytes [3]uint64 }
	measure := func(pages int) cost3 {
		h := hv.New(2*pages + 16)
		dom, err := h.CreateDomain("guest", pages)
		if err != nil {
			t.Fatalf("CreateDomain: %v", err)
		}
		g, err := guestos.Boot(dom, guestos.BootConfig{Seed: 77})
		if err != nil {
			t.Fatalf("Boot: %v", err)
		}
		pid, err := g.StartProcess("victim", 0, 8)
		if err != nil {
			t.Fatalf("StartProcess: %v", err)
		}
		bufVA, err := g.Malloc(pid, 4*mem.PageSize)
		if err != nil {
			t.Fatalf("Malloc: %v", err)
		}
		ckpt, err := checkpoint.NewWithParams(h, dom, checkpoint.Params{Opt: cost.Full, Workers: 1})
		if err != nil {
			t.Fatalf("checkpoint.New: %v", err)
		}
		defer ckpt.Close()
		write := func(b byte) {
			for i := 0; i < 4; i++ {
				if err := g.WriteUser(pid, bufVA+uint64(i*mem.PageSize), []byte{b}); err != nil {
					t.Fatalf("WriteUser: %v", err)
				}
			}
		}
		var c cost3
		var before, after runtime.MemStats
		step := func(i int, fn func() error) {
			runtime.ReadMemStats(&before)
			if err := fn(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			c.allocs[i] += after.Mallocs - before.Mallocs
			c.bytes[i] += after.TotalAlloc - before.TotalAlloc
		}
		const runs = 10
		for r := 0; r < runs; r++ {
			write(byte(2 * r))
			if _, err := ckpt.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if _, err := ckpt.Committed(); err != nil {
				t.Fatalf("Committed: %v", err)
			}
			write(byte(2*r + 1)) // the attacked epoch
			var dumps *Dumps
			step(0, func() (err error) { dumps, err = CaptureDumps(g, ckpt); return err })
			step(1, ckpt.Rollback)
			write(byte(2 * r)) // the replay
			step(2, func() error { return dumps.CaptureAttackDump(g) })
		}
		for i := range c.allocs {
			c.allocs[i] /= runs
			c.bytes[i] /= runs
		}
		return c
	}
	small, large := measure(512), measure(4096)
	for i, name := range []string{"CaptureDumps", "Rollback", "CaptureAttackDump"} {
		if small.allocs[i] != large.allocs[i] {
			t.Errorf("allocations per %s: %d on 512 pages, %d on 4096", name, small.allocs[i], large.allocs[i])
		}
		// A full dump would add 14 MiB on the larger guest.
		if large.bytes[i] > small.bytes[i]+small.bytes[i]/100+1024 {
			t.Errorf("bytes per %s: %d on 512 pages, %d on 4096", name, small.bytes[i], large.bytes[i])
		}
	}
}
