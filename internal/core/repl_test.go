package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cost"
	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/remus"
)

// replRun is everything a replicated run reports: the per-epoch results
// with the wall-clock timings (the only field that may differ run to
// run) cleared, what Close settled, and the totals after Close.
type replRun struct {
	epochs []EpochResult
	tail   checkpoint.ShipReport
	totals cost.ReplicationCounts
}

// scriptedWork returns a deterministic epoch workload over a 24-page
// arena: stamps, full rewrites, duplicates and zero fills by page (so the
// v2 wire emits every opcode), one packet, and — when disk is set — one
// block write per epoch.
func scriptedWork(disk bool) func(*guestos.Guest) error {
	const arena = 24
	var pid uint32
	var bufVA uint64
	epoch := 0
	return func(g *guestos.Guest) error {
		if pid == 0 {
			var err error
			if pid, err = g.StartProcess("app", 0, arena+8); err != nil {
				return err
			}
			if bufVA, err = g.Malloc(pid, arena*mem.PageSize); err != nil {
				return err
			}
		}
		epoch++
		// Stamps, full rewrites, duplicates and zero fills, by page.
		page := make([]byte, mem.PageSize-64)
		for i := 0; i < arena; i++ {
			data := []byte{byte(epoch), byte(i), 0xAB}
			switch (i + epoch) % 4 {
			case 1:
				data = page
				for k := range data {
					data[k] = byte(k*7 + i*13 + epoch*31)
				}
			case 2:
				data = page
				for k := range data {
					data[k] = byte(k + epoch)
				}
			case 3:
				data = page
				for k := range data {
					data[k] = 0
				}
			}
			if err := g.WriteUser(pid, bufVA+uint64(i*mem.PageSize), data); err != nil {
				return err
			}
		}
		if disk {
			if err := g.WriteBlock(pid, 1, 0, []byte{byte(epoch)}); err != nil {
				return err
			}
		}
		return g.SendPacket(pid, [4]byte{10, 0, 0, 1}, 80, []byte("out"))
	}
}

// runReplicated drives a delta+dedup, remote-replicated guest through
// epochs of seeded page rewrites. faultAt > 0 makes that occurrence of
// the conduit send fail transiently (occurrence 1 is the initial sync,
// occurrence n+1 epoch n's ship).
func runReplicated(t *testing.T, cfg Config, epochs, faultAt int) replRun {
	t.Helper()
	cfg.EpochInterval = 20 * time.Millisecond
	cfg.Modules = defaultModules()
	cfg.Remus = RemusDeltaDedup
	ctl, inj, _ := newFaultController(t, cfg)
	if faultAt > 0 {
		inj.Fail(remus.FaultSend, faultAt, 1, true)
	}
	if err := ctl.Checkpointer().EnableRemoteReplication([]byte("0123456789abcdef")); err != nil {
		t.Fatalf("EnableRemoteReplication: %v", err)
	}
	work := scriptedWork(cfg.DiskBlocks > 0)
	var run replRun
	for n := 1; n <= epochs; n++ {
		res, err := ctl.RunEpoch(work)
		if err != nil {
			t.Fatalf("epoch %d: %v", n, err)
		}
		if res.Incident != nil {
			t.Fatalf("epoch %d raised a spurious incident: %+v", n, res.Findings)
		}
		res.Commit.Timings = checkpoint.PhaseTimings{}
		run.epochs = append(run.epochs, *res)
	}
	if err := ctl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	run.tail = ctl.Checkpointer().Drained()
	run.totals = ctl.ReplicationTotals()
	if faultAt > 0 && inj.Tripped(remus.FaultSend) != 1 {
		t.Fatalf("send fault fired %d times, want once", inj.Tripped(remus.FaultSend))
	}
	return run
}

// Bench finding 1: with the ship pipelined out of the pause,
// EpochResult.Replication used to be whatever the shipper happened to
// have sent between two stats snapshots. Now every shipment is reported
// exactly once — by the epoch that settled it or by Close — so the
// pipelined run's per-epoch replication plus its final drain is exactly
// what the serial run, which ships inside each commit, reports.
func TestPipelinedReplicationExact(t *testing.T) {
	const epochs = 10
	serial := runReplicated(t, Config{Workers: 1}, epochs, 0)
	piped := runReplicated(t, Config{Workers: 2}, epochs, 0)

	sum := func(r replRun) (s cost.ReplicationCounts) {
		for _, e := range r.epochs {
			s.Add(e.Replication)
		}
		return s
	}
	want := sum(serial)
	if want.Batches != epochs || want.DeltaPages == 0 || want.ZeroPages == 0 || want.DupPages == 0 {
		t.Fatalf("serial run did not exercise the stream: %+v", want)
	}
	if serial.tail != (checkpoint.ShipReport{}) || serial.totals != want {
		t.Fatalf("serial run: tail %+v totals %+v, want no tail and totals %+v", serial.tail, serial.totals, want)
	}
	got := sum(piped)
	if got.Batches != epochs-piped.tail.Acked || piped.tail.Acked == 0 {
		t.Fatalf("pipelined run: %d batches reported by epochs, %d by Close, want %d in all with a tail",
			got.Batches, piped.tail.Acked, epochs)
	}
	got.Add(piped.tail.Repl)
	if got != want {
		t.Fatalf("pipelined per-epoch replication + drain = %+v\nserial per-epoch replication          = %+v", got, want)
	}
	if piped.totals != want {
		t.Fatalf("ReplicationTotals after Close = %+v, want %+v", piped.totals, want)
	}
	// Each epoch reports one whole shipment, two epochs after it was
	// enqueued: the same bytes the serial run reported for that epoch.
	for n, lag := 0, piped.tail.Acked; n+lag < epochs; n++ {
		if got, want := piped.epochs[n+lag].Replication, serial.epochs[n].Replication; got != want {
			t.Fatalf("epoch %d settled %+v, want epoch %d's shipment %+v", n+lag+1, got, n+1, want)
		}
	}
}

// ROADMAP "fix first": per-epoch accounting is a function of the inputs,
// never of goroutine scheduling. The whole EpochResult stream of a
// pipelined, transiently faulted run — recovery, commit report,
// replication counts and the virtual-time phases priced from them — is
// identical on one, two and eight processors.
func TestEpochStreamIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, cfg := range []Config{
		{Workers: 2},
		{Workers: 2, CoW: true, DiskBlocks: 16},
	} {
		t.Run(fmt.Sprintf("cow=%v", cfg.CoW), func(t *testing.T) {
			var want replRun
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				for rep := 0; rep < 3; rep++ {
					got := runReplicated(t, cfg, 8, 4) // epoch 3's ship fails once
					if want.epochs == nil {
						want = got
						retries := 0
						for _, e := range got.epochs {
							retries += e.Recovery.Retries
						}
						if retries != 1 || got.epochs[4].Recovery.Retries != 1 {
							t.Fatalf("retry of epoch 3's shipment not reported by epoch 5: %+v", got.epochs[4].Recovery)
						}
						continue
					}
					if !reflect.DeepEqual(got, want) {
						for i := range got.epochs {
							if !reflect.DeepEqual(got.epochs[i], want.epochs[i]) {
								t.Fatalf("GOMAXPROCS=%d: epoch %d = %+v\nfirst run (GOMAXPROCS=1)     = %+v",
									procs, i+1, got.epochs[i], want.epochs[i])
							}
						}
						t.Fatalf("GOMAXPROCS=%d: tail/totals %+v %+v, first run %+v %+v",
							procs, got.tail, got.totals, want.tail, want.totals)
					}
				}
			}
		})
	}
}
