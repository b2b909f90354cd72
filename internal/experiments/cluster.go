package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/guestos"
	"repro/internal/workload"
)

// Cluster-sweep scale: hosts each running a fleet-sized VM complement.
var clusterHostCounts = []int{1, 4, 16, 64}

const (
	// clusterVMsPerHost matches the fleet sweep's largest point, so the
	// hosts=1 row prices through the identical path as BENCH_fleet.json
	// vms=8.
	clusterVMsPerHost = 8
	// clusterMTBFEpochs is each host's mean epochs between failures for
	// the rolling-failure availability model: with H hosts the cluster
	// takes H failures per clusterMTBFEpochs rounds, so failure pressure
	// scales with fleet size the way real hardware does.
	clusterMTBFEpochs = 10000
)

// ClusterPoint is one cluster size: per-VM staggered pause including
// the cross-host replica commit, aggregate pause, and epoch throughput
// with and without rolling host failures.
type ClusterPoint struct {
	Hosts            int     `json:"hosts"`
	VMs              int     `json:"vms"`
	PauseMsPerVM     float64 `json:"staggered_pause_ms_per_vm"`
	AggregatePauseMs float64 `json:"staggered_aggregate_ms"`
	// CleanEpochsPerSec is the cluster-wide epoch completion rate with
	// every host healthy; FailureEpochsPerSec discounts it by the
	// VM-time lost to promotions and replica resyncs under rolling
	// failures (one per host per clusterMTBFEpochs rounds).
	CleanEpochsPerSec   float64 `json:"clean_epochs_per_sec"`
	FailureEpochsPerSec float64 `json:"epochs_per_sec_under_failures"`
	Availability        float64 `json:"availability"`
	// PromoteMs prices one VM's failover: detection and adoption plus
	// the full cross-host resync that re-arms its replacement replica.
	PromoteMs float64 `json:"promote_ms"`
}

// ClusterRing reports placement balance and rebalance churn for the
// consistent-hash ring at a representative cluster size.
type ClusterRing struct {
	Hosts  int `json:"hosts"`
	VMs    int `json:"vms"`
	Vnodes int `json:"vnodes"`
	// MaxPerHost/MinPerHost are the heaviest and lightest hosts' VM
	// counts under ring placement.
	MaxPerHost int `json:"max_vms_per_host"`
	MinPerHost int `json:"min_vms_per_host"`
	// JoinMoved/LeaveMoved count VMs whose primary host changes when
	// one host joins or leaves; the churn columns price shipping those
	// VMs' memory to its new home.
	JoinMoved     int     `json:"join_moved_vms"`
	LeaveMoved    int     `json:"leave_moved_vms"`
	JoinChurnMs   float64 `json:"join_churn_ms"`
	LeaveChurnMs  float64 `json:"leave_churn_ms"`
	JoinMovedFrac float64 `json:"join_moved_frac"`
}

// ClusterFailover summarizes a real end-to-end host-kill run on the
// full stack: a cluster is built, a host is killed mid-run, and the
// run's evidence is compared against an identical run with no kill.
type ClusterFailover struct {
	Hosts      int `json:"hosts"`
	VMs        int `json:"vms"`
	Epochs     int `json:"epochs"`
	KillRound  int `json:"kill_round"`
	Promotions int `json:"promotions"`
	Rearms     int `json:"replica_rearms"`
	LostVMs    int `json:"lost_vms"`
	Epochs2    int `json:"total_epochs"`
	Findings   int `json:"findings"`
	Incidents  int `json:"incidents"`
	// DigestsMatchNoKill is true when every VM's final primary and
	// backup memory digests — and its findings/incident counts — are
	// identical to the no-kill control run: failover was transparent.
	DigestsMatchNoKill bool    `json:"digests_match_no_kill"`
	FailoverMs         float64 `json:"failover_ms"`
}

// ClusterBench is the machine-readable multi-host benchmark
// (BENCH_cluster.json).
type ClusterBench struct {
	Workload   string           `json:"workload"`
	Opt        string           `json:"opt"`
	EpochMs    float64          `json:"epoch_ms"`
	Workers    int              `json:"workers"`
	StaggerK   int              `json:"stagger_k"`
	VMsPerHost int              `json:"vms_per_host"`
	GuestPages int              `json:"guest_pages"`
	MTBFEpochs int              `json:"host_mtbf_epochs"`
	Scale      []ClusterPoint   `json:"scale"`
	Ring       ClusterRing      `json:"ring"`
	Failover   *ClusterFailover `json:"failover"`
}

func clusterHostNames(n int) []string {
	hs := make([]string, n)
	for i := range hs {
		hs[i] = fmt.Sprintf("host%d", i)
	}
	return hs
}

// ClusterSweep prices the multi-host sweep and runs the real failover
// case study. The hosts=1 point has nowhere anti-affine to replicate,
// so it prices exactly like one fleet host and reproduces the
// BENCH_fleet.json vms=8 staggered numbers byte-for-byte.
func ClusterSweep() (*ClusterBench, error) {
	spec, err := workload.ParsecByName("swaptions")
	if err != nil {
		return nil, err
	}
	m := cost.Default()
	epoch := 200 * time.Millisecond
	counts := epochCounts(spec, epoch)
	bench := &ClusterBench{
		Workload:   spec.Name,
		Opt:        cost.Full.String(),
		EpochMs:    ms(epoch),
		Workers:    fleetWorkers,
		StaggerK:   fleetStaggerK,
		VMsPerHost: clusterVMsPerHost,
		GuestPages: workload.PaperVMPages,
		MTBFEpochs: clusterMTBFEpochs,
	}
	for _, h := range clusterHostCounts {
		vms := h * clusterVMsPerHost
		pause := pause(m, cost.Full, counts, cost.PauseCtx{Workers: fleetWorkers, Concurrent: fleetStaggerK, Hosts: h}).Total()
		roundWall := (epoch + pause).Seconds()
		clean := float64(vms) / roundWall
		p := ClusterPoint{
			Hosts:            h,
			VMs:              vms,
			PauseMsPerVM:     ms(pause),
			AggregatePauseMs: ms(time.Duration(vms) * pause),
		}
		p.CleanEpochsPerSec = clean
		if h > 1 {
			// One host failure costs its VMs a promotion plus replica
			// re-arm, and the VMs whose replica it hosted a resync.
			promote := m.Promote(workload.PaperVMPages, h)
			resync := m.ReplicateCrossHost(workload.PaperVMPages, h)
			p.PromoteMs = ms(promote + resync)
			failoverVMSec := float64(clusterVMsPerHost)*(promote+resync).Seconds() +
				float64(clusterVMsPerHost)*resync.Seconds()
			lostFrac := (float64(h) / clusterMTBFEpochs) * failoverVMSec /
				(float64(vms) * roundWall)
			p.Availability = 1 - lostFrac
			p.FailureEpochsPerSec = clean * p.Availability
		} else {
			// A lone host has no failover path; failures are not
			// survivable, so only the healthy rate is meaningful.
			p.Availability = 1
			p.FailureEpochsPerSec = clean
		}
		bench.Scale = append(bench.Scale, p)
	}

	const ringHosts, ringVMs = 16, 128
	names := clusterHostNames(ringHosts)
	placed := cluster.PlacementCounts(names, ringVMs, 0)
	ring := ClusterRing{Hosts: ringHosts, VMs: ringVMs, Vnodes: cluster.DefaultVnodes}
	ring.MinPerHost = ringVMs
	for _, name := range names {
		c := placed[name]
		if c > ring.MaxPerHost {
			ring.MaxPerHost = c
		}
		if c < ring.MinPerHost {
			ring.MinPerHost = c
		}
	}
	ring.JoinMoved = cluster.MovedKeys(names, ringVMs, 0, func(r *cluster.Ring) {
		r.Add(fmt.Sprintf("host%d", ringHosts))
	})
	ring.LeaveMoved = cluster.MovedKeys(names, ringVMs, 0, func(r *cluster.Ring) {
		r.Remove("host3")
	})
	ring.JoinMovedFrac = float64(ring.JoinMoved) / ringVMs
	ring.JoinChurnMs = ms(m.RebalanceChurn(ring.JoinMoved * workload.PaperVMPages))
	ring.LeaveChurnMs = ms(m.RebalanceChurn(ring.LeaveMoved * workload.PaperVMPages))
	bench.Ring = ring

	fo, err := clusterFailoverRun()
	if err != nil {
		return nil, err
	}
	bench.Failover = fo
	return bench, nil
}

// clusterFailoverRun drives the real stack twice — once clean, once
// with a host killed mid-run — and checks that the kill changed
// nothing observable: same epochs, findings, incidents, and final
// memory digests, with zero VMs lost.
func clusterFailoverRun() (*ClusterFailover, error) {
	const hosts, vms, epochs, killRound = 3, 6, 8, 4
	spec, err := workload.ParsecByName("swaptions")
	if err != nil {
		return nil, err
	}
	type armResult struct {
		rep     *cluster.Report
		digests [][2][32]byte
	}
	run := func(kill bool) (*armResult, error) {
		cfg := cluster.Config{Hosts: hosts, VMs: vms, Seed: 17}
		cfg.Core.Workers = 1
		cl, err := cluster.New(cfg)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		if kill {
			cl.KillHostAt(cl.VMs()[0].HostName(), killRound)
		}
		runners := make([]*workload.Runner, vms)
		for i := range runners {
			runners[i] = workload.NewRunner(spec, 64)
		}
		rep := cl.Run(epochs, func(vm *cluster.VM, _ int) func(*guestos.Guest) error {
			r := runners[vm.Index]
			return func(g *guestos.Guest) error {
				return r.RunEpoch(g, 10*time.Millisecond)
			}
		})
		res := &armResult{rep: rep}
		for _, vm := range cl.VMs() {
			ckpt := vm.Current().Controller.Checkpointer()
			prim, err := ckpt.Primary().DumpMemory()
			if err != nil {
				return nil, err
			}
			back, err := ckpt.Backup().DumpMemory()
			if err != nil {
				return nil, err
			}
			res.digests = append(res.digests,
				[2][32]byte{sha256.Sum256(prim.Bytes()), sha256.Sum256(back.Bytes())})
		}
		return res, nil
	}
	plain, err := run(false)
	if err != nil {
		return nil, err
	}
	failed, err := run(true)
	if err != nil {
		return nil, err
	}
	match := plain.rep.TotalEpochs == failed.rep.TotalEpochs &&
		plain.rep.TotalFindings == failed.rep.TotalFindings &&
		plain.rep.TotalIncidents == failed.rep.TotalIncidents
	for i := range plain.digests {
		if !bytes.Equal(plain.digests[i][0][:], failed.digests[i][0][:]) ||
			!bytes.Equal(plain.digests[i][1][:], failed.digests[i][1][:]) {
			match = false
		}
	}
	return &ClusterFailover{
		Hosts:              hosts,
		VMs:                vms,
		Epochs:             epochs,
		KillRound:          killRound,
		Promotions:         failed.rep.Promotions,
		Rearms:             failed.rep.Rearms,
		LostVMs:            failed.rep.LostVMs,
		Epochs2:            failed.rep.TotalEpochs,
		Findings:           failed.rep.TotalFindings,
		Incidents:          failed.rep.TotalIncidents,
		DigestsMatchNoKill: match,
		FailoverMs:         ms(failed.rep.FailoverTime),
	}, nil
}

// clusterTable is the "cluster" experiment's scale-table layout. The
// last header has always sat one column right of its cells; the spaces
// in it keep the text byte-identical.
var clusterTable = table[ClusterPoint]{
	{"hosts", -6, "%d", "hosts", "%d", func(p ClusterPoint) any { return p.Hosts }},
	{"vms", 6, "%d", "vms", "%d", func(p ClusterPoint) any { return p.VMs }},
	{"pause/vm", 12, "%.3f", "staggered_pause_ms_per_vm", "%.3f", func(p ClusterPoint) any { return p.PauseMsPerVM }},
	{"agg-pause", 12, "%.3f", "staggered_aggregate_ms", "%.3f", func(p ClusterPoint) any { return p.AggregatePauseMs }},
	{"clean-ep/s", 14, "%.2f", "clean_epochs_per_sec", "%.2f", func(p ClusterPoint) any { return p.CleanEpochsPerSec }},
	{"failure-ep/s", 14, "%.2f", "epochs_per_sec_under_failures", "%.2f", func(p ClusterPoint) any { return p.FailureEpochsPerSec }},
	{"       avail", 11, "%.4f", "availability", "%.4f", func(p ClusterPoint) any { return p.Availability }},
}

// render is the "cluster" text experiment: aggregate epoch throughput by
// cluster size under rolling host failures, ring placement balance and
// churn, and the real host-kill case study.
func (bench *ClusterBench) render() *Result {
	s := newSheet(fmt.Sprintf(
		"Cluster scaling: %s epoch throughput by host count, %d VMs/host, host MTBF %d epochs",
		bench.Workload, bench.VMsPerHost, bench.MTBFEpochs))
	clusterTable.header(s)
	clusterTable.rows(s, bench.Scale...)
	r := bench.Ring
	fmt.Fprintf(&s.text, "\nring: %d hosts x %d vnodes, %d VMs: %d..%d per host; join moves %d VMs (%.1f%%, %.0f ms churn), leave moves %d (%.0f ms)\n",
		r.Hosts, r.Vnodes, r.VMs, r.MinPerHost, r.MaxPerHost,
		r.JoinMoved, 100*r.JoinMovedFrac, r.JoinChurnMs, r.LeaveMoved, r.LeaveChurnMs)
	f := bench.Failover
	fmt.Fprintf(&s.text, "failover: killed 1 of %d hosts at round %d/%d: %d promotions, %d rearms, %d lost; evidence identical to no-kill run: %v\n",
		f.Hosts, f.KillRound, f.Epochs, f.Promotions, f.Rearms, f.LostVMs, f.DigestsMatchNoKill)
	return s.result("cluster", "Cluster control plane: placement, throughput under host failures, failover transparency")
}
