package experiments

import "testing"

// TestClusterSweepAnchors is the cluster acceptance gate: the hosts=1
// point must reproduce the fleet sweep's staggered vms=8 numbers
// byte-for-byte (a lone host prices exactly like one fleet host), the
// real host-kill run must lose nothing and leave
// evidence identical to the no-kill control, and rolling failures must
// only ever discount throughput.
func TestClusterSweepAnchors(t *testing.T) {
	bench, err := ClusterSweep()
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := FleetSweep()
	if err != nil {
		t.Fatal(err)
	}
	var fleet8 *FleetPoint
	for i := range fleet.Points {
		if fleet.Points[i].VMs == clusterVMsPerHost {
			fleet8 = &fleet.Points[i]
		}
	}
	if fleet8 == nil {
		t.Fatalf("fleet sweep has no vms=%d point", clusterVMsPerHost)
	}
	single := bench.Scale[0]
	if single.Hosts != 1 || single.VMs != clusterVMsPerHost {
		t.Fatalf("first scale point is %d hosts x %d VMs, want 1 x %d",
			single.Hosts, single.VMs, clusterVMsPerHost)
	}
	if single.PauseMsPerVM != fleet8.StaggerPauseMsPerVM {
		t.Errorf("hosts=1 pause %.6f ms/VM != fleet staggered %.6f",
			single.PauseMsPerVM, fleet8.StaggerPauseMsPerVM)
	}
	if single.AggregatePauseMs != fleet8.StaggerAggregateMs {
		t.Errorf("hosts=1 aggregate %.6f ms != fleet staggered %.6f",
			single.AggregatePauseMs, fleet8.StaggerAggregateMs)
	}
	for _, p := range bench.Scale {
		if p.Hosts > 1 && p.PauseMsPerVM <= single.PauseMsPerVM {
			t.Errorf("hosts=%d pause %.3f ms/VM not above single-host %.3f (cross-host commit unpriced?)",
				p.Hosts, p.PauseMsPerVM, single.PauseMsPerVM)
		}
		if p.Availability <= 0 || p.Availability > 1 {
			t.Errorf("hosts=%d availability %.4f out of range", p.Hosts, p.Availability)
		}
		if p.FailureEpochsPerSec > p.CleanEpochsPerSec {
			t.Errorf("hosts=%d throughput under failures %.2f exceeds clean %.2f",
				p.Hosts, p.FailureEpochsPerSec, p.CleanEpochsPerSec)
		}
	}
	r := bench.Ring
	if r.MinPerHost == 0 || r.MaxPerHost/r.MinPerHost > 3 {
		t.Errorf("ring balance %d..%d per host too skewed", r.MinPerHost, r.MaxPerHost)
	}
	f := bench.Failover
	if f.LostVMs != 0 {
		t.Errorf("host-kill run lost %d VMs", f.LostVMs)
	}
	if f.Promotions == 0 || f.Rearms == 0 {
		t.Errorf("host-kill run exercised no failover: %+v", f)
	}
	if !f.DigestsMatchNoKill {
		t.Error("failover was not transparent: evidence diverged from the no-kill control")
	}
	if f.Epochs2 != f.VMs*f.Epochs {
		t.Errorf("total epochs %d, want %d: failover broke the schedule", f.Epochs2, f.VMs*f.Epochs)
	}
}
