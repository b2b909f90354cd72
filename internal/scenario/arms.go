package scenario

import (
	"fmt"
	"time"

	"repro/internal/detect"
	"repro/internal/slo"

	crimes "repro"
)

// Arm is one named controller configuration the matrix crosses attacks
// against. Arms deliberately include a control arm without the
// cross-epoch detectors so epoch-aware attacks have somewhere to
// demonstrate their evasion.
type Arm struct {
	Name  string
	Desc  string
	Apply func(*crimes.Config)
	// Cluster arms run the scenario on the multi-host control plane
	// with the given shape instead of a single protected VM.
	Cluster    bool
	Hosts, VMs int
}

// crossEpochModules is the hardened detector set: the point-in-time
// modules plus the two detectors that retain state across audits.
func crossEpochModules() []detect.Module {
	return append(crimes.DefaultModules(),
		detect.NewTransientCensus(),
		detect.CrossEpochRevertModule{},
	)
}

// jitterize enables randomized epoch boundaries. The seed is fixed so
// runs are reproducible; half-interval jitter is the widest the
// controller allows before clamping.
func jitterize(cfg *crimes.Config) {
	cfg.EpochJitter = cfg.EpochInterval / 2
	cfg.JitterSeed = 0x5eed
}

// arms is the catalog of config arms.
var arms = []Arm{
	{
		Name:  "baseline",
		Desc:  "single worker, point-in-time detectors only",
		Apply: func(cfg *crimes.Config) {},
	},
	{
		Name:  "workers4",
		Desc:  "pipelined commit with four workers",
		Apply: func(cfg *crimes.Config) { cfg.Workers = 4 },
	},
	{
		Name:  "scan-cache",
		Desc:  "LRU foreign-mapping scan cache on",
		Apply: func(cfg *crimes.Config) { cfg.ScanCache = crimes.ScanCacheOn },
	},
	{
		Name:  "cow",
		Desc:  "copy-on-write checkpointing with speculative resume",
		Apply: func(cfg *crimes.Config) { cfg.CoW = true },
	},
	{
		Name:  "cross-epoch",
		Desc:  "adds transient-census and cross-epoch-revert detectors",
		Apply: func(cfg *crimes.Config) { cfg.Modules = crossEpochModules() },
	},
	{
		Name: "cross-epoch-cow",
		Desc: "cross-epoch detectors over the copy-on-write commit",
		Apply: func(cfg *crimes.Config) {
			cfg.Modules = crossEpochModules()
			cfg.CoW = true
		},
	},
	{
		Name:  "jitter",
		Desc:  "randomized epoch boundaries, point-in-time detectors",
		Apply: jitterize,
	},
	{
		Name: "hardened",
		Desc: "cross-epoch detectors plus randomized boundaries",
		Apply: func(cfg *crimes.Config) {
			cfg.Modules = crossEpochModules()
			jitterize(cfg)
		},
	},
	{
		Name:  "remus-raw",
		Desc:  "remote replication on the v1 raw wire",
		Apply: func(cfg *crimes.Config) { cfg.Remus = crimes.RemusRaw },
	},
	{
		Name:  "remus-dedup",
		Desc:  "remote replication on the v2 delta+dedup wire",
		Apply: func(cfg *crimes.Config) { cfg.Remus = crimes.RemusDeltaDedup },
	},
	{
		Name: "slo-adaptive",
		Desc: "tail-latency controller steering interval and workers",
		Apply: func(cfg *crimes.Config) {
			// The target sits just under the pause proxy (4x a ~2.8 ms
			// commit pause), so the controller visibly steers — first
			// spending workers, then stretching the interval — while the
			// audit modules stay untouched.
			cfg.SLO = slo.New(slo.Config{
				TargetP99:  8 * time.Millisecond,
				MaxWorkers: 4,
			})
		},
	},
	{
		Name:    "cluster",
		Desc:    "two hosts, two VMs on the multi-host control plane",
		Apply:   func(cfg *crimes.Config) {},
		Cluster: true,
		Hosts:   2,
		VMs:     2,
	},
}

// ArmByName resolves a config arm.
func ArmByName(name string) (Arm, error) {
	for _, a := range arms {
		if a.Name == name {
			return a, nil
		}
	}
	return Arm{}, fmt.Errorf("scenario: unknown config arm %q", name)
}

// ArmNames lists the arms in catalog order.
func ArmNames() []string {
	out := make([]string, len(arms))
	for i, a := range arms {
		out[i] = a.Name
	}
	return out
}

// jitterDefers reports whether, under the jitter arm's fixed seed, the
// epoch's actual interval lands before an action planned at frac of the
// nominal interval — i.e. whether the audit preempts the attacker's
// step. Catalog entries use it to document why a given epoch is where
// detection lands.
func jitterDefers(nominal time.Duration, epoch int, frac float64) bool {
	cfg := crimes.Config{EpochInterval: nominal}
	jitterize(&cfg)
	return time.Duration(frac*float64(nominal)) > cfg.EpochIntervalAt(epoch)
}
