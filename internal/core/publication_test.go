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

// A copy fault in a copy-on-write commit fails the commit under pause,
// before any page is shared: the backup still holds the last commit and
// no output of the failed epoch has left, so the controller rolls back
// (fatal) or retries (transient) and the VM runs on — it never halts for
// it. Epoch 2 starts a process and its commit's first page copy fails.
// From then on, every clean commit must leave the backup equal to the
// paused primary, and at the end the running VM's bookkeeping matches
// its memory.
func TestCoWCopyFaultRollsBack(t *testing.T) {
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
			inj.FailNext(checkpoint.FaultCopyPage, 1, tc.transient)
			for e := 2; e <= 4; e++ {
				res, err := ctl.RunEpoch(work)
				if ctl.Halted() {
					t.Fatalf("epoch %d: a copy fault halted the VM: %v", e, err)
				}
				if e == 2 {
					want := UnwindRollback
					if tc.transient {
						want = UnwindNone
					}
					if res == nil || res.Recovery.Unwind != want || (err == nil) != tc.transient {
						t.Fatalf("epoch 2 with a copy fault: err %v, result %+v; want unwind %q", err, res, want)
					}
					if err != nil {
						continue
					}
				}
				if err != nil {
					t.Fatalf("epoch %d: %v", e, err)
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
				t.Fatal("copy fault never fired")
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
