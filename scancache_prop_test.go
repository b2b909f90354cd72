package crimes

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/fault"
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

// A rollback and a tampered canary table are invisible to the scan
// cache too. The canary index is refreshed only from the dirty pages the
// walk memo is fed, so each script below replays on the cache-off and
// the cache-on arm and every epoch's findings, incident and unwind must
// agree:
//   - rollback: an epoch that frees and registers canaries fails its
//     commit and is rolled back (its table pages revert, and stay in the
//     dirty log); a clean epoch follows, then an overflow;
//   - tamper-value: the guest rewrites a live record's expected value
//     and rewrites its canary's page;
//   - tamper-state: the guest frees a live record by its state word and
//     overwrites the canary (an evasion on both arms), restores the
//     state without touching the canary's page, then rewrites that page.
func TestScanCacheRollbackAndTamperEquivalence(t *testing.T) {
	type outcome struct {
		findings []Finding
		incident bool
		unwind   string
	}
	// A script returns one work function per epoch, sharing its own
	// state, and the epoch whose commit fails (0: none).
	type script func() (epochs []func(*guestos.Guest) error, failCommit int)

	var pid uint32
	var vas []uint64
	setup := func(g *guestos.Guest) error {
		var err error
		if pid, err = g.StartProcess("app", 0, 8); err != nil {
			return err
		}
		vas = vas[:0]
		for i := 0; i < 12; i++ {
			va, err := g.Malloc(pid, 16+8*i)
			if err != nil {
				return err
			}
			vas = append(vas, va)
		}
		return nil
	}
	// record returns the live record in the middle of the table and its
	// guest-physical address.
	record := func(g *guestos.Guest) (guestos.CanaryEntry, uint64, error) {
		live, err := g.ActiveCanaries()
		if err != nil {
			return guestos.CanaryEntry{}, 0, err
		}
		e := live[len(live)/2]
		return e, g.Layout().CanaryTablePA + 16 + uint64(e.Index*g.Profile().CanaryEntrySize), nil
	}
	writeU32 := func(g *guestos.Guest, pa uint64, v uint32) error {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		return g.Domain().WritePhys(pa, b[:])
	}
	var tampered guestos.CanaryEntry
	var tamperedPA uint64
	scripts := map[string]script{
		"rollback": func() ([]func(*guestos.Guest) error, int) {
			return []func(*guestos.Guest) error{
				setup,
				func(g *guestos.Guest) error {
					for _, i := range []int{0, 3, 7} {
						if err := g.Free(pid, vas[i]); err != nil {
							return err
						}
					}
					for i := 0; i < 5; i++ {
						if _, err := g.Malloc(pid, 200+8*i); err != nil {
							return err
						}
					}
					return g.WriteUser(pid, vas[5], []byte{1, 2, 3})
				},
				func(g *guestos.Guest) error {
					if err := g.Free(pid, vas[2]); err != nil {
						return err
					}
					for i := 0; i < 3; i++ {
						if _, err := g.Malloc(pid, 40+8*i); err != nil {
							return err
						}
					}
					return g.WriteUser(pid, vas[1], []byte{4, 5})
				},
				func(g *guestos.Guest) error {
					_, err := workload.InjectOverflow(g, pid, 64, 16)
					return err
				},
			}, 2
		},
		"tamper-value": func() ([]func(*guestos.Guest) error, int) {
			return []func(*guestos.Guest) error{
				setup,
				func(g *guestos.Guest) error {
					e, pa, err := record(g)
					if err != nil {
						return err
					}
					var v [8]byte
					binary.LittleEndian.PutUint64(v[:], e.Value^0xFF)
					if err := g.Domain().WritePhys(pa+uint64(g.Profile().CanaryOffValue), v[:]); err != nil {
						return err
					}
					// Rewrite the canary's own bytes unchanged: its page
					// is dirty, its value is not.
					binary.LittleEndian.PutUint64(v[:], e.Value)
					return g.Domain().WritePhys(e.PA, v[:])
				},
			}, 0
		},
		"tamper-state": func() ([]func(*guestos.Guest) error, int) {
			smash := func(g *guestos.Guest) error {
				return g.Domain().WritePhys(tampered.PA, []byte{0x41, 0x41, 0x41, 0x41, 0x41, 0x41, 0x41, 0x41})
			}
			return []func(*guestos.Guest) error{
				setup,
				func(g *guestos.Guest) error {
					var err error
					if tampered, tamperedPA, err = record(g); err != nil {
						return err
					}
					if err := writeU32(g, tamperedPA+uint64(g.Profile().CanaryOffState), 0); err != nil {
						return err
					}
					return smash(g)
				},
				func(g *guestos.Guest) error {
					return writeU32(g, tamperedPA+uint64(g.Profile().CanaryOffState), 1)
				},
				smash,
			}, 0
		},
	}
	run := func(name string, mode ScanCacheMode) []outcome {
		inj := fault.NewInjector()
		h := hv.New(2*propPages + 64)
		h.InjectFaults(inj)
		ctl, err := core.Launch(h, core.GuestSpec{
			Name: "guest", Pages: propPages, Boot: guestos.BootConfig{Seed: 41},
		}, Config{Modules: DefaultModules(), EpochInterval: 20 * time.Millisecond, ScanCache: mode})
		if err != nil {
			t.Fatalf("%s: Launch: %v", name, err)
		}
		defer ctl.Close()
		epochs, failCommit := scripts[name]()
		var out []outcome
		for e, work := range epochs {
			if e+1 == failCommit {
				inj.Fail(checkpoint.FaultCopyPage, inj.Calls(checkpoint.FaultCopyPage)+1, 1, false)
			}
			res, err := ctl.RunEpoch(work)
			if err != nil && (res == nil || res.Recovery.Unwind != UnwindRollback) {
				t.Fatalf("%s arm %v epoch %d: %v", name, mode, e+1, err)
			}
			out = append(out, outcome{res.Findings, res.Incident != nil, res.Recovery.Unwind})
			if res.Incident != nil {
				break
			}
		}
		return out
	}
	for name := range scripts {
		off, on := run(name, ScanCacheOff), run(name, ScanCacheOn)
		if !reflect.DeepEqual(on, off) {
			t.Errorf("%s: cache-on outcomes diverge:\n%+v\nvs cache-off:\n%+v", name, on, off)
		}
		last := off[len(off)-1]
		if !last.incident || last.findings[0].Kind != detect.KindBufferOverflow {
			t.Errorf("%s: last epoch %+v, want an overflow incident", name, last)
		}
		if name == "rollback" && (len(off) != 4 || off[1].unwind != UnwindRollback || len(off[2].findings) != 0) {
			t.Errorf("rollback: outcomes %+v, want a rollback at epoch 2 and a clean epoch 3", off)
		}
		if name == "tamper-state" && len(off) != 4 {
			t.Errorf("tamper-state: outcomes %+v, want the incident at epoch 4 only", off)
		}
	}
}
