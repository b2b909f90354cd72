package crimes

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/workload"
)

// The scan-cache equivalence property: for randomized workloads, clean
// or under attack, the audit's findings are a pure function of guest
// state — the cache and walk memo are invisible except in cost. Each
// seeded script is replayed on four arms (default config, explicit
// cache-off, per-epoch mappings, persistent cache) and every epoch's
// findings and incident outcome must agree across all of them.

// propOp is one scripted guest operation. Scripts are generated from a
// seed once, then replayed identically on every arm.
type propOp struct {
	epoch int
	kind  string // "start", "compute", "malloc", "write", "packet"
	size  int
	n     int
}

const propEpochs = 5

// genScript builds a deterministic pseudo-random workload script.
func genScript(seed int64) []propOp {
	rng := rand.New(rand.NewSource(seed))
	ops := []propOp{{epoch: 1, kind: "start", size: 2 + rng.Intn(3)}}
	for e := 1; e <= propEpochs; e++ {
		for i := 0; i < 2+rng.Intn(4); i++ {
			switch rng.Intn(5) {
			case 0:
				ops = append(ops, propOp{epoch: e, kind: "start", size: 1 + rng.Intn(3)})
			case 1:
				ops = append(ops, propOp{epoch: e, kind: "compute", n: 1 + rng.Intn(40)})
			case 2:
				ops = append(ops, propOp{epoch: e, kind: "malloc", size: 16 + 8*rng.Intn(20)})
			case 3:
				ops = append(ops, propOp{epoch: e, kind: "write", n: rng.Intn(1 << 16)})
			case 4:
				ops = append(ops, propOp{epoch: e, kind: "packet", size: 1 + rng.Intn(64)})
			}
		}
	}
	return ops
}

// propEpochOutcome is what one epoch of one arm reported: the audit's
// verdict, the virtual clock after it, and each mode's counter set (zero
// when the mode is off).
type propEpochOutcome struct {
	findings []Finding
	incident bool
	vtime    time.Duration
	scan     cost.ScanCacheCounts
	cow      cost.CoWCounts
	repl     cost.ReplicationCounts
}

// propRun is one arm's whole run: per-epoch outcomes, the final virtual
// clock, and digests of the primary, of the backup once any lazy CoW
// copies have been settled, and — for an arm with a remote replica — of
// the replica once the shipper has drained.
type propRun struct {
	epochs        []propEpochOutcome
	virtualTime   time.Duration
	primaryDigest [32]byte
	backupDigest  [32]byte
	remoteDigest  [32]byte
}

const propPages = 512

// runPropArm replays a script on one freshly-launched system under cfg;
// with remote set, every commit is also shipped to a remote replica over
// the configured wire. Every equivalence suite — scan cache, CoW,
// replication wire, and their combination — runs its arms through this
// one interpreter, so they all draw from the same workload distribution.
func runPropArm(t *testing.T, seed int64, cfg Config, script []propOp, attack string, remote bool) *propRun {
	t.Helper()
	cfg.Modules = DefaultModules()
	cfg.EpochInterval = 20 * time.Millisecond
	// Room for the primary, its backup and a remote replica.
	ctl, err := core.Launch(hv.New(3*propPages+64), core.GuestSpec{
		Name: "guest", Pages: propPages, Boot: guestos.BootConfig{Seed: seed},
	}, cfg)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	t.Cleanup(func() { ctl.Close() })
	ckpt := ctl.Checkpointer()
	if remote {
		if err := ckpt.EnableRemoteReplication([]byte("0123456789abcdef")); err != nil {
			t.Fatalf("EnableRemoteReplication: %v", err)
		}
	}

	var pids []uint32
	type alloc struct {
		pid  uint32
		va   uint64
		size int
	}
	var allocs []alloc
	run := &propRun{}
	fulls := evidenceRef{}
	next := 0
	for e := 1; e <= propEpochs; e++ {
		res, err := ctl.RunEpoch(func(g *guestos.Guest) error {
			for ; next < len(script) && script[next].epoch == e; next++ {
				op := script[next]
				switch op.kind {
				case "start":
					pid, err := g.StartProcess(fmt.Sprintf("proc%d", len(pids)), 1000, op.size)
					if err != nil {
						return err
					}
					pids = append(pids, pid)
				case "compute":
					if err := g.Compute(pids[0], op.n); err != nil {
						return err
					}
				case "malloc":
					va, err := g.Malloc(pids[len(pids)-1], op.size)
					if err != nil {
						return err
					}
					allocs = append(allocs, alloc{pids[len(pids)-1], va, op.size})
				case "write":
					if len(allocs) == 0 {
						continue
					}
					a := allocs[op.n%len(allocs)]
					buf := make([]byte, 1+op.n%a.size)
					for i := range buf {
						buf[i] = byte(op.n + i)
					}
					if err := g.WriteUser(a.pid, a.va, buf); err != nil {
						return err
					}
				case "packet":
					payload := make([]byte, op.size)
					if err := g.SendPacket(pids[0], [4]byte{10, 0, 0, 9}, 443, payload); err != nil {
						return err
					}
				}
			}
			if e == propEpochs && attack != "" {
				return injectPropAttack(g, pids[len(pids)-1], attack)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d attack %q epoch %d: %v", seed, attack, e, err)
		}
		if cfg.HistoryDepth > 0 || res.Incident != nil {
			fulls.check(t, ctl, res, cfg.ReplayOnIncident)
		}
		run.epochs = append(run.epochs, propEpochOutcome{
			findings: res.Findings,
			incident: res.Incident != nil,
			vtime:    res.VirtualTime,
			scan:     res.ScanCache,
			cow:      res.CoW,
			repl:     res.Replication,
		})
		run.virtualTime = ctl.VirtualTime()
		if res.Incident != nil {
			break
		}
	}

	// Settle in-flight lazy copies (a no-op unless CoW is on), then digest
	// both domains: with the copier drained the backup must equal the one
	// an eager commit produces.
	if err := ckpt.Quiesce(); err != nil {
		t.Fatalf("seed %d attack %q: quiesce: %v", seed, attack, err)
	}
	digest := func(d *hv.Domain) [32]byte {
		snap, err := d.DumpMemory()
		if err != nil {
			t.Fatalf("dump %s: %v", d.Name(), err)
		}
		return sha256.Sum256(snap.Bytes())
	}
	run.primaryDigest = digest(ckpt.Primary())
	run.backupDigest = digest(ckpt.Backup())
	if remote {
		// Close settles the shipments still in the pipeline's window.
		if err := ctl.Close(); err != nil {
			t.Fatalf("seed %d attack %q: close: %v", seed, attack, err)
		}
		run.remoteDigest = digest(ckpt.Remote())
	}
	return run
}

func injectPropAttack(g *guestos.Guest, pid uint32, kind string) error {
	switch kind {
	case "overflow":
		_, err := workload.InjectOverflow(g, pid, 64, 16)
		return err
	case "malware":
		_, err := workload.InjectMalware(g)
		return err
	case "hijack":
		// Rewrites the syscall table: a page the warm cache has mapped
		// and the walk memo has memoized since preprocessing. Detection
		// on the cached arm proves mid-epoch dirty-page invalidation.
		return workload.InjectSyscallHijack(g, 11)
	case "hidden":
		_, err := workload.InjectHiddenProcess(g, "lurker")
		return err
	}
	return fmt.Errorf("unknown attack %q", kind)
}

func TestScanCachePropertyEquivalence(t *testing.T) {
	attacks := []string{"", "", "overflow", "malware", "hijack", "hidden"}
	for i, attack := range attacks {
		seed := int64(100 + 17*i)
		script := genScript(seed)
		arms := map[string]*propRun{
			"default":  runPropArm(t, seed, Config{}, script, attack, false),
			"off":      runPropArm(t, seed, Config{ScanCache: ScanCacheOff}, script, attack, false),
			"uncached": runPropArm(t, seed, Config{ScanCache: ScanCacheUncached}, script, attack, false),
			"on":       runPropArm(t, seed, Config{ScanCache: ScanCacheOn}, script, attack, false),
		}
		base := arms["default"]

		// Findings and incident outcomes are identical on every arm.
		for name, arm := range arms {
			if len(arm.epochs) != len(base.epochs) {
				t.Fatalf("seed %d attack %q: arm %s ran %d epochs, default ran %d",
					seed, attack, name, len(arm.epochs), len(base.epochs))
			}
			for e := range base.epochs {
				if !reflect.DeepEqual(arm.epochs[e].findings, base.epochs[e].findings) {
					t.Errorf("seed %d attack %q epoch %d: arm %s findings diverge:\n%+v\nvs default:\n%+v",
						seed, attack, e+1, name, arm.epochs[e].findings, base.epochs[e].findings)
				}
				if arm.epochs[e].incident != base.epochs[e].incident {
					t.Errorf("seed %d attack %q epoch %d: arm %s incident=%v, default=%v",
						seed, attack, e+1, name, arm.epochs[e].incident, base.epochs[e].incident)
				}
			}
		}
		if attack != "" && !base.epochs[len(base.epochs)-1].incident {
			t.Errorf("seed %d: attack %q went undetected", seed, attack)
		}

		// The cache-off path is bit-identical to the default config: no
		// scan-cache counters, and exactly the same virtual clock.
		for _, name := range []string{"default", "off"} {
			for e, out := range arms[name].epochs {
				if out.scan != (cost.ScanCacheCounts{}) {
					t.Errorf("seed %d: arm %s epoch %d carries cache counters: %+v", seed, name, e+1, out.scan)
				}
			}
		}
		if arms["off"].virtualTime != base.virtualTime {
			t.Errorf("seed %d: cache-off virtual time %v != default %v",
				seed, arms["off"].virtualTime, base.virtualTime)
		}

		// The cached arms really exercised the cache.
		for _, name := range []string{"uncached", "on"} {
			var total cost.ScanCacheCounts
			for _, out := range arms[name].epochs {
				total.Add(out.scan)
			}
			if total.CacheMisses == 0 {
				t.Errorf("seed %d: arm %s recorded no cache activity", seed, name)
			}
		}
		onLast := arms["on"].epochs[len(arms["on"].epochs)-1]
		if attack != "" && onLast.scan.CacheSwept == 0 {
			t.Errorf("seed %d attack %q: final cached epoch swept nothing — invalidation never ran", seed, attack)
		}
	}
}

// core.ScanCacheMode re-exports stay wired to the real constants.
func TestScanCacheReexports(t *testing.T) {
	if ScanCacheOff != core.ScanCacheOff || ScanCacheUncached != core.ScanCacheUncached || ScanCacheOn != core.ScanCacheOn {
		t.Fatal("scan-cache mode re-exports diverge from core")
	}
	m, err := ParseScanCacheMode("on")
	if err != nil || m != ScanCacheOn {
		t.Fatalf("ParseScanCacheMode = %v, %v", m, err)
	}
}
