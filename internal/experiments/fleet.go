package experiments

import (
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/workload"
)

// fleetVMCounts is the multi-VM scalability sweep (the paper's §6
// co-located-VM setting).
var fleetVMCounts = []int{1, 2, 4, 8}

const (
	// fleetWorkers is the host's shared pause-path worker pool.
	fleetWorkers = 8
	// fleetStaggerK is the staggered scheduler's bound: at most one VM
	// inside its pause window at a time.
	fleetStaggerK = 1
)

// FleetPoint compares synchronized and staggered scheduling for one
// fleet size, in milliseconds. Per-VM numbers price one checkpoint
// pause; aggregate numbers sum the fleet (each VM pauses once per
// epoch, so the aggregate is the host's total lost guest time per
// epoch round).
type FleetPoint struct {
	VMs                 int     `json:"vms"`
	SyncPauseMsPerVM    float64 `json:"sync_pause_ms_per_vm"`
	SyncAggregateMs     float64 `json:"sync_aggregate_ms"`
	StaggerPauseMsPerVM float64 `json:"staggered_pause_ms_per_vm"`
	StaggerAggregateMs  float64 `json:"staggered_aggregate_ms"`
	// SavingVsSync is sync_aggregate / staggered_aggregate (>= 1: how
	// much aggregate pause the stagger scheduler recovers).
	SavingVsSync float64 `json:"aggregate_saving_vs_sync"`
}

// FleetBench is the machine-readable fleet-scheduling benchmark
// (BENCH_fleet.json): the swaptions checkpoint pause under contended
// (synchronized) versus staggered epoch boundaries as the fleet grows.
// The vms=1 row prices through the same path as the single-VM parallel
// pause benchmark, so it matches BENCH_pause.json's workers=8 row
// byte-for-byte.
type FleetBench struct {
	Workload string       `json:"workload"`
	Opt      string       `json:"opt"`
	EpochMs  float64      `json:"epoch_ms"`
	Workers  int          `json:"workers"`
	StaggerK int          `json:"stagger_k"`
	Points   []FleetPoint `json:"points"`
}

// FleetSweep prices the fleet sweep: every VM runs swaptions at the
// Full optimization level on a shared fleetWorkers-sized pool.
// Synchronized scheduling lets all N VMs hit their epoch boundary at
// once (each checkpoint runs with workers/N of the pool); staggered
// scheduling bounds concurrency at fleetStaggerK, so each VM keeps the
// whole pool and aggregate pause stays near-linear instead of
// superlinear.
func FleetSweep() (*FleetBench, error) {
	spec, err := workload.ParsecByName("swaptions")
	if err != nil {
		return nil, err
	}
	m := cost.Default()
	epoch := 200 * time.Millisecond
	counts := epochCounts(spec, epoch)
	bench := &FleetBench{
		Workload: spec.Name,
		Opt:      cost.Full.String(),
		EpochMs:  ms(epoch),
		Workers:  fleetWorkers,
		StaggerK: fleetStaggerK,
	}
	for _, n := range fleetVMCounts {
		syncPause := pause(m, cost.Full, counts, cost.PauseCtx{Workers: fleetWorkers, Concurrent: n}).Total()
		stagPause := pause(m, cost.Full, counts, cost.PauseCtx{Workers: fleetWorkers, Concurrent: fleetStaggerK}).Total()
		syncAgg := time.Duration(n) * syncPause
		stagAgg := time.Duration(n) * stagPause
		bench.Points = append(bench.Points, FleetPoint{
			VMs:                 n,
			SyncPauseMsPerVM:    ms(syncPause),
			SyncAggregateMs:     ms(syncAgg),
			StaggerPauseMsPerVM: ms(stagPause),
			StaggerAggregateMs:  ms(stagAgg),
			SavingVsSync:        float64(syncAgg) / float64(stagAgg),
		})
	}
	return bench, nil
}

// fleetTable is the "fleet" experiment's layout.
var fleetTable = table[FleetPoint]{
	{"vms", -6, "%d", "vms", "%d", func(p FleetPoint) any { return p.VMs }},
	{"sync/vm", 14, "%.3f", "sync_pause_ms_per_vm", "%.3f", func(p FleetPoint) any { return p.SyncPauseMsPerVM }},
	{"sync-agg", 14, "%.3f", "sync_aggregate_ms", "%.3f", func(p FleetPoint) any { return p.SyncAggregateMs }},
	{"stagger/vm", 14, "%.3f", "staggered_pause_ms_per_vm", "%.3f", func(p FleetPoint) any { return p.StaggerPauseMsPerVM }},
	{"stagger-agg", 14, "%.3f", "staggered_aggregate_ms", "%.3f", func(p FleetPoint) any { return p.StaggerAggregateMs }},
	{"saving", 8, "%.2fx", "aggregate_saving_vs_sync", "%.3f", func(p FleetPoint) any { return p.SavingVsSync }},
}

// render is the "fleet" text experiment: aggregate pause for
// synchronized versus staggered epoch boundaries at 1, 2, 4 and 8
// co-located VMs.
func (bench *FleetBench) render() *Result {
	s := newSheet(fmt.Sprintf(
		"Fleet scheduling: %s aggregate pause (ms) by fleet size, %d shared workers, stagger K=%d",
		bench.Workload, bench.Workers, bench.StaggerK))
	fleetTable.header(s)
	fleetTable.rows(s, bench.Points...)
	return s.result("fleet", "Fleet scheduling: synchronized vs staggered epoch boundaries")
}
