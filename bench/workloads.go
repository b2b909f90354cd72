package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/workload"
)

// The six workloads. Each stresses a different set of layers, so that
// for every optimisation one workload exercises its mechanism and
// another bypasses it (README.md has the full table and the reasons).
// Every knob that changes behaviour is spelled out here — Workers in
// particular — so nothing depends on the machine's core count.

// kind selects the driver a workload runs under.
type kind int

const (
	kindSingle   kind = iota // one VM under core.New / RunEpoch
	kindFleet                // fleet.New / fleet.Run
	kindCluster              // cluster.New / Cluster.Run
	kindIncident             // launch, a few clean epochs, one attacked epoch, repeated
)

// vmParams describes one protected VM and the guest load inside it.
type vmParams struct {
	pages     int // guest memory in 4 KiB pages
	canaryCap int // guest canary-table capacity; 0 = the guest default (2048)

	spec     workload.Spec // dirty-rate profile
	scale    int           // divide the profile's paper-scale page counts by this
	interval time.Duration // epoch interval (sets dirty pages per epoch)

	bgProcs    int // background processes started in the first epoch...
	bgCanaries int // ...each holding this many live heap objects (one canary each)

	packets     int  // packets sent per epoch
	mix         bool // seeded rewrite mix instead of 8-byte stamps
	diskBlocks  int  // attached virtual disk size in blocks; 0 = no disk
	blockWrites int  // disk block writes per epoch
	remote      bool // remote replication onto the same (3x-sized) hypervisor

	core core.Config // strategy knobs; Modules, Deliverer and EpochInterval are filled in
}

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	why  string
	kind kind
	vm   vmParams

	// epochs is the measured epoch count (per VM; rounds for the cluster;
	// iterations for incident-forensics) of a 10-second run on the
	// reference box. It is a fixed count, not a duration, so every exact
	// counter repeats; -seconds scales it.
	epochs int
	// warmup is the untimed epoch count run before the measured region.
	warmup int
	// setups is how many times the workload is set up per run; setup_s
	// is the median.
	setups int
	// diagEvery runs the traced run's out-of-boundary diagnostic spans
	// (bitmap scan, VMI walks, stand-alone conduit send) on every n-th
	// epoch.
	diagEvery int

	vms, hosts, maxPaused int // fleet / cluster shape
	chunk                 int // fleet: epochs per fleet.Run call
	cleanEpochs           int // incident: clean epochs before the attacked one
}

func mustSpec(name string) workload.Spec {
	s, err := workload.ParsecByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

// fleetProfiles are the four PARSEC profiles fleet4-mixed hands out to
// its VMs in a seeded order (277 to 3623 dirty pages per epoch at /8).
var fleetProfiles = []string{"fluidanimate", "freqmine", "vips", "swaptions"}

// attackFamilies are cycled in a seeded order by incident-forensics.
var attackFamilies = []string{"overflow", "malware", "hijack", "hidden"}

var workloads = []workloadDef{
	{
		name: "vm1-dirty-heavy",
		why:  "1 VM, 64 MiB, 1811+ dirty pages/epoch on the seed commit path: checkpoint copy/undo, mem bitmap and hv harvest dominate; detect/vmi do little, so an audit optimisation must show no change",
		kind: kindSingle,
		vm: vmParams{
			pages: 16384, spec: mustSpec("fluidanimate"), scale: 16, interval: 200 * time.Millisecond,
			packets: 4,
			core:    core.Config{Opt: cost.Full, Workers: 1},
		},
		epochs: 5500, warmup: 100, setups: 5, diagEvery: 16,
	},
	{
		name: "vm1-scan-heavy",
		why:  "1 VM, 64 MiB, 7168 live canaries in 56 processes, 21 dirty pages/epoch, scan cache on: detect, vmi, hv.scancache, CloneState and fixed boundary costs dominate; checkpoint copies almost nothing",
		kind: kindSingle,
		vm: vmParams{
			pages: 16384, canaryCap: 65536, spec: workload.Web(workload.WebLight), scale: 64, interval: 20 * time.Millisecond,
			bgProcs: 56, bgCanaries: 128, packets: 4,
			core: core.Config{Opt: cost.Full, Workers: 1, ScanCache: core.ScanCacheOn},
		},
		epochs: 12000, warmup: 200, setups: 5, diagEvery: 4,
	},
	{
		name: "vm1-repl-cow",
		why:  "1 VM, 32 MiB, CoW commit, delta+dedup remote replication, disk, Workers=2, seeded rewrite mix: remus encode/encrypt/decode, pipelined shipper, CoW arm/copier/fault path dominate; varies shared content",
		kind: kindSingle,
		vm: vmParams{
			pages: 8192, spec: workload.Web(workload.WebHigh), scale: 8, interval: 50 * time.Millisecond,
			packets: 4, mix: true, diskBlocks: 256, blockWrites: 8, remote: true,
			core: core.Config{Opt: cost.Full, Workers: 2, CoW: true, Remus: core.RemusDeltaDedup, DiskBlocks: 256},
		},
		epochs: 850, warmup: 20, setups: 5, diagEvery: 1,
	},
	{
		name: "fleet4-mixed",
		why:  "4 VMs x 32 MiB on one hypervisor, K=2 pause gate, Workers=2, uncached audit, four PARSEC profiles: shared-hypervisor lock, frame pool and gate contention with more drivers than cores",
		kind: kindFleet,
		vm: vmParams{
			pages: 8192, scale: 8, interval: 200 * time.Millisecond,
			bgProcs: 24, bgCanaries: 32, packets: 4,
			core: core.Config{Opt: cost.Full, Workers: 2},
		},
		epochs: 2500, warmup: 50, setups: 5, diagEvery: 16,
		vms: 4, maxPaused: 2, chunk: 50,
	},
	{
		name: "cluster4-failover",
		why:  "4 hosts, 8 VMs x 8 MiB, raw wire shipped serially inside the boundary, two host kills: cluster placement/promotion, cross-host raw remus (not vm1-repl-cow's path); a round waits for its slowest VM",
		kind: kindCluster,
		vm: vmParams{
			pages: 2048, spec: mustSpec("swaptions"), scale: 32, interval: 20 * time.Millisecond,
			packets: 1,
			core:    core.Config{Opt: cost.Full, Workers: 1},
		},
		epochs: 16000, warmup: 50, setups: 5, diagEvery: 4,
		vms: 8, hosts: 4,
	},
	{
		name: "incident-forensics",
		why:  "launch a 2 MiB VM, 3 clean epochs, 1 attacked epoch (overflow/malware/hijack/hidden by seed), repeated: analyze, volatility, hv snapshot/rollback, vmi init; the only workload paying set-up per op",
		kind: kindIncident,
		vm: vmParams{
			pages: 512, spec: mustSpec("raytrace"), scale: 64, interval: 200 * time.Millisecond,
			packets: 4,
			core:    core.Config{Opt: cost.Full, Workers: 1, ReplayOnIncident: true, HistoryDepth: 2},
		},
		epochs: 1400, warmup: 0, setups: 1, diagEvery: 1,
		cleanEpochs: 3,
	},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// segments is how many equal parts the measured region is cut into;
// every gated timing metric is computed per segment (see
// quartileSegment).
const segments = 10

// sized returns the workload scaled to a run of the given length in
// seconds (10 = the reference size). Counts stay multiples of the
// segment count — and, for the fleet, of the chunk length — so segment
// edges fall between epochs.
func (w workloadDef) sized(seconds float64) workloadDef {
	scale := func(n, unit int) int {
		v := int(float64(n)*seconds/10+0.5) / unit * unit
		if v < unit {
			v = unit
		}
		return v
	}
	if w.kind == kindFleet {
		// A chunk needs two epochs to hold one boundary.
		if perSeg := scale(w.epochs, segments) / segments; perSeg < w.chunk {
			w.chunk = max(perSeg, 2)
		}
		w.epochs = scale(w.epochs, segments*w.chunk)
	} else {
		w.epochs = scale(w.epochs, segments)
	}
	if w.warmup > 0 {
		w.warmup = scale(w.warmup, 1)
	}
	return w
}
