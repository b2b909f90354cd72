package core

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/detect"
	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/vmi"
)

// A copy-on-write commit whose lazy copy fails after its outputs were
// released has lost its publication: the backup still holds the commit
// before it. The controller must neither roll back to that commit — the
// released outputs and the guest's bookkeeping have moved past it — nor
// commit on top of it as if nothing was lost, even when the failure is
// transient. Epoch 2 starts a process and commits lazily, and its first
// lazy copy fails. From then on, every clean commit must leave the
// backup equal to the paused primary, and at the end the VM is halted
// or its bookkeeping matches its memory.
func TestLostPublicationHalts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		history   int
		transient bool
	}{
		{"fatal", 0, false},
		{"transient", 0, true},
		{"history", 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctl, inj, _ := newFaultController(t, Config{
				EpochInterval: 20 * time.Millisecond,
				Modules:       detect.DefaultModules(),
				CoW:           true,
				Workers:       2,
				HistoryDepth:  tc.history,
			})
			ckpt := ctl.Checkpointer()
			var pid uint32
			var bufVA uint64
			var stamp byte
			work := func(g *guestos.Guest) error {
				var err error
				if pid == 0 {
					if pid, err = g.StartProcess("app", 0, 8); err != nil {
						return err
					}
					if bufVA, err = g.Malloc(pid, 4*mem.PageSize); err != nil {
						return err
					}
				} else if stamp == 1 {
					if _, err = g.StartProcess("late", 0, 8); err != nil {
						return err
					}
				}
				stamp++
				for i := 0; i < 4; i++ {
					if err := g.WriteUser(pid, bufVA+uint64(i*mem.PageSize), []byte{stamp}); err != nil {
						return err
					}
				}
				return nil
			}
			if _, err := ctl.RunEpoch(work); err != nil {
				t.Fatalf("epoch 1: %v", err)
			}
			// Publish epoch 1, so the next copy is epoch 2's first lazy one.
			if err := ckpt.Quiesce(); err != nil {
				t.Fatalf("Quiesce: %v", err)
			}
			inj.FailNext(checkpoint.FaultCopyPage, 1, tc.transient)
			for e := 2; e <= 4 && !ctl.Halted(); e++ {
				if _, err := ctl.RunEpoch(work); err != nil || ctl.Halted() {
					continue
				}
				// Without history epoch 2's copies are still in flight; a
				// quiesce here would take the failure from the controller.
				if tc.history == 0 && e == 2 {
					continue
				}
				if err := ckpt.Quiesce(); err != nil {
					t.Fatalf("epoch %d: a clean commit left a lost publication behind: %v", e, err)
				}
				primary, err := ctl.Guest().Domain().DumpMemory()
				if err != nil {
					t.Fatalf("DumpMemory: %v", err)
				}
				backup, err := ckpt.Backup().DumpMemory()
				if err != nil {
					t.Fatalf("DumpMemory: %v", err)
				}
				if !bytes.Equal(primary.Bytes(), backup.Bytes()) {
					t.Fatalf("epoch %d: clean commit left the backup different from the paused primary", e)
				}
			}
			if inj.Tripped(checkpoint.FaultCopyPage) == 0 {
				t.Fatal("lazy copy fault never fired")
			}
			if ctl.Halted() {
				return
			}
			g := ctl.Guest()
			v, err := vmi.NewContext(g.Domain(), g.Profile(), g.SystemMap())
			if err != nil {
				t.Fatalf("vmi: %v", err)
			}
			if err := v.Preprocess(); err != nil {
				t.Fatalf("vmi preprocess: %v", err)
			}
			procs, err := v.ProcessList()
			if err != nil {
				t.Fatalf("ProcessList: %v", err)
			}
			var inMemory []uint32
			for _, p := range procs {
				inMemory = append(inMemory, p.PID)
			}
			slices.Sort(inMemory)
			if !slices.Equal(g.Processes(), inMemory) {
				t.Fatalf("running VM's bookkeeping %v disagrees with its memory %v", g.Processes(), inMemory)
			}
		})
	}
}
