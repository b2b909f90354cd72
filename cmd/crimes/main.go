// Command crimes runs a guest workload under CRIMES protection and
// demonstrates attack detection, rollback-and-replay pinpointing, and
// forensic reporting.
//
// Usage:
//
//	crimes -workload swaptions -epochs 10 -interval 100ms
//	crimes -attack overflow          # case study 1
//	crimes -attack malware -windows  # case study 2
//	crimes -attack hijack
//	crimes -attack hidden
//	crimes -vms 4 -stagger           # fleet: 4 co-located VMs, staggered
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/fleet"
	"repro/internal/guestos"
	"repro/internal/honeypot"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/slo"
	"repro/internal/websim"
	"repro/internal/workload"

	crimes "repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "crimes:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	var (
		wl         = flag.String("workload", "swaptions", "PARSEC workload profile to run")
		epochs     = flag.Int("epochs", 5, "number of epochs to execute")
		interval   = flag.Duration("interval", 100*time.Millisecond, "epoch interval")
		attack     = flag.String("attack", "", "inject an attack in the final epoch: overflow|malware|hijack|hidden")
		windows    = flag.Bool("windows", false, "boot a Windows guest profile")
		bestEffort = flag.Bool("best-effort", false, "disable output buffering (Best Effort safety)")
		pot        = flag.Bool("honeypot", false, "after an incident, convert the VM into a monitored honeypot")
		modules    = flag.String("modules", "default", "comma-separated detector modules (see -modules list)")
		faultSpec  = flag.String("fault", "", "inject a fault: site:N[:transient] fails the Nth call at site (e.g. hv.suspend:2, remus.send:1:transient)")
		workers    = flag.Int("workers", 0, "pause-path worker pool size (0 = GOMAXPROCS, 1 = exact serial path)")
		optLevel   = flag.String("opt", "full", "checkpointing optimization level: noopt|memcpy|premap|full (noopt ships every dirty page through the encrypted conduit)")
		remusMode  = flag.String("remus", "raw", "replication wire protocol: raw (full page copies), delta (XOR-delta vs last shipped), delta+dedup (delta + content-hash dedup)")
		remusBudg  = flag.Int("remus-budget", 0, "delta modes: shipped-version table budget in pages (0 = unbounded)")
		scanCache  = flag.String("scan-cache", "off", "audit read strategy: off (direct reads), uncached (per-epoch mappings), on (persistent cache + incremental walks)")
		cow        = flag.Bool("cow", false, "copy-on-write commit: arm write faults on dirty pages and resume immediately, copying into the backup lazily")
		vms        = flag.Int("vms", 1, "number of co-located VMs to protect (fleet mode when > 1)")
		hosts      = flag.Int("hosts", 1, "number of simulated hosts (cluster mode when > 1: ring placement, anti-affine replicas, failover)")
		hostKill   = flag.String("host-kill", "", "cluster: kill a host mid-run, as host:round (e.g. host1:3)")
		stagger    = flag.Bool("stagger", false, "stagger fleet epoch boundaries (default bound: 1 VM paused at a time)")
		maxPaused  = flag.Int("max-paused", 0, "fleet: max VMs paused/committing at once (0 = unbounded, or 1 with -stagger)")
		traceOut   = flag.String("trace", "", "write a JSONL epoch trace (one event per phase) to this file")
		metricsOut = flag.String("metrics", "", "write a Prometheus-format metrics dump to this file on exit")
		scen       = flag.String("scenario", "", "run catalog scenarios: a name, all, or family:F (see -scenario-list)")
		scenList   = flag.Bool("scenario-list", false, "list the scenario catalog and exit")
		scenTrace  = flag.String("scenario-trace-dir", "", "write each scenario's JSONL obs trace into this directory")
		webUsers   = flag.Int64("web", 0, "closed-loop web users: replay this run's epoch timeline into the cohort load generator and report client tail latency (single-VM mode)")
		sloTarget  = flag.Duration("slo", 0, "client p99 objective: enable the adaptive SLO controller steering interval, workers, and pause-gate K (0 = off)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (goroutines labeled vm, role=shipper|cow-copier|restore)")
		memProf    = flag.String("memprofile", "", "write an allocation profile of the run to this file on exit")
	)
	flag.Parse()

	stopProf, err := obs.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil && retErr == nil {
			retErr = err
		}
	}()

	if *scenList {
		return listScenarios(os.Stdout)
	}
	if *scen != "" {
		return runScenarios(os.Stdout, *scen, *scenTrace)
	}

	if *modules == "list" {
		for _, n := range detect.AvailableModules() {
			fmt.Println(n)
		}
		return nil
	}
	mods, err := detect.ModulesByName(*modules)
	if err != nil {
		return err
	}
	scMode, err := crimes.ParseScanCacheMode(*scanCache)
	if err != nil {
		return err
	}
	rmMode, err := crimes.ParseRemusMode(*remusMode)
	if err != nil {
		return err
	}
	opt, err := parseOpt(*optLevel)
	if err != nil {
		return err
	}
	cfg := crimes.Config{
		EpochInterval:    *interval,
		ReplayOnIncident: true,
		Modules:          mods,
		Workers:          *workers,
		Opt:              opt,
		ScanCache:        scMode,
		CoW:              *cow,
		Remus:            rmMode,
		RemusBudgetPages: *remusBudg,
	}
	if *bestEffort {
		cfg.Safety = crimes.BestEffort
	}
	if *traceOut != "" || *metricsOut != "" {
		var traceW io.Writer
		if *traceOut != "" {
			tf, err := os.Create(*traceOut)
			if err != nil {
				return err
			}
			defer func() {
				if err := tf.Close(); err != nil && retErr == nil {
					retErr = err
				}
			}()
			traceW = tf
		}
		obsrv := crimes.NewObserver(traceW, *metricsOut != "")
		cfg.Obs = obsrv
		if *metricsOut != "" {
			defer func() {
				err := os.WriteFile(*metricsOut, []byte(obsrv.Metrics.DumpString()), 0o644)
				if err != nil && retErr == nil {
					retErr = err
				}
			}()
		}
	}
	if *hosts > 1 {
		if *webUsers > 0 {
			return errors.New("-web needs single-VM mode")
		}
		return runCluster(clusterOpts{
			hosts:     *hosts,
			vms:       *vms,
			stagger:   *stagger,
			maxPaused: *maxPaused,
			windows:   *windows,
			workload:  *wl,
			epochs:    *epochs,
			interval:  *interval,
			attack:    *attack,
			hostKill:  *hostKill,
			slo:       *sloTarget,
			cfg:       cfg,
		})
	}
	if *hostKill != "" {
		return errors.New("-host-kill needs cluster mode (-hosts > 1)")
	}
	if *vms > 1 {
		if *webUsers > 0 {
			return errors.New("-web needs single-VM mode")
		}
		return runFleet(fleetOpts{
			vms:       *vms,
			stagger:   *stagger,
			maxPaused: *maxPaused,
			windows:   *windows,
			workload:  *wl,
			epochs:    *epochs,
			interval:  *interval,
			attack:    *attack,
			slo:       *sloTarget,
			cfg:       cfg,
		})
	}
	if *sloTarget > 0 {
		cfg.SLO = slo.New(slo.Config{TargetP99: *sloTarget})
	}
	sys, err := crimes.Launch(crimes.Options{
		GuestPages: 2048,
		Windows:    *windows,
		Config:     cfg,
	})
	if err != nil {
		return err
	}
	defer sys.Close()

	if *faultSpec != "" {
		inj, err := parseFault(*faultSpec)
		if err != nil {
			return err
		}
		sys.HV.InjectFaults(inj)
	}

	spec, err := workload.ParsecByName(*wl)
	if err != nil {
		return err
	}
	runner := workload.NewRunner(spec, 64)

	// -web: a cohort load generator lives through the same virtual
	// timeline the controller produces, so every checkpoint pause lands
	// on simulated clients; its per-epoch p99 also feeds the SLO
	// controller when one is live.
	var clients *websim.Gen
	var clientHist *obs.Histogram
	var clientsServed uint64
	if *webUsers > 0 {
		clients, err = websim.NewGen(websim.GenParams{Classes: websim.DefaultClasses(*webUsers)})
		if err != nil {
			return err
		}
		clientHist = obs.NewHistogram(websim.LatencyBuckets())
	}

	for i := 1; i <= *epochs; i++ {
		last := i == *epochs
		res, err := sys.RunEpoch(func(g *guestos.Guest) error {
			if err := runner.RunEpoch(g, *interval); err != nil {
				return err
			}
			if last && *attack != "" {
				return inject(g, runner.PID(), *attack)
			}
			return nil
		})
		if err != nil {
			if res != nil {
				reportRecovery(res.Recovery)
			}
			return err
		}
		fmt.Printf("epoch %2d: dirty=%5d pages, pause=%8v, findings=%d\n",
			res.Epoch, res.Counts.DirtyPages, res.Phases.Total().Round(time.Microsecond), len(res.Findings))
		reportCommit(res.Commit)
		reportRecovery(res.Recovery)
		if clients != nil {
			clients.Run(res.Interval)
			clients.Pause(res.Phases.Total())
			clientHist.Merge(clients.Hist())
			p99, n := clients.TakeEpoch()
			clientsServed += n
			cfg.SLO.ObserveP99(p99, n) // no-op when the controller is off
		}
		if res.Incident != nil {
			fmt.Printf("\nINCIDENT at epoch %d; %d buffered outputs discarded\n",
				res.Incident.Epoch, sys.Controller.Buffer().Discarded())
			if res.Incident.Pinpoint != nil {
				fmt.Println("pinpoint:", res.Incident.Pinpoint.Describe())
			}
			fmt.Println()
			fmt.Println(res.Incident.Report.Render())
			if *pot {
				return runHoneypot(sys, runner.PID())
			}
			return nil
		}
	}
	fmt.Printf("\ncompleted %d clean epochs; virtual time %v (pause %v, %.1f%%)\n",
		sys.Controller.Epoch(), sys.Controller.VirtualTime().Round(time.Millisecond),
		sys.Controller.TotalPause().Round(time.Millisecond),
		100*float64(sys.Controller.TotalPause())/float64(sys.Controller.VirtualTime()))
	used, capacity := sys.Controller.ScanCacheLive()
	fmt.Print(sys.Controller.ScanCacheTotals().Summary(fmt.Sprintf("%d/%d", used, capacity)),
		sys.Controller.CoWTotals().Summary(), sys.Controller.ReplicationTotals().Summary())
	if clients != nil {
		virt := sys.Controller.VirtualTime()
		fmt.Printf("web: %d users served %d requests (%.0f req/s); p50=%v p99=%v p999=%v\n",
			clients.Users(), clientsServed, float64(clientsServed)/virt.Seconds(),
			time.Duration(clientHist.Quantile(0.50)).Round(time.Microsecond),
			time.Duration(clientHist.Quantile(0.99)).Round(time.Microsecond),
			time.Duration(clientHist.Quantile(0.999)).Round(time.Microsecond))
	}
	if cfg.SLO.Enabled() {
		tun := cfg.SLO.Tunables()
		fmt.Printf("slo: %d tuning steps; interval=%v workers=%d (detection lag %v)\n",
			sys.Controller.SLOSteps(), tun.Interval, tun.Workers, cfg.SLO.DetectionLag())
	}
	return nil
}

// parseOpt parses the -opt checkpointing optimization level.
func parseOpt(s string) (cost.Optimization, error) {
	switch s {
	case "noopt", "none":
		return crimes.OptNone, nil
	case "memcpy":
		return crimes.OptMemcpy, nil
	case "premap":
		return crimes.OptPremap, nil
	case "full", "":
		return crimes.OptFull, nil
	default:
		return 0, fmt.Errorf("unknown -opt level %q (want noopt|memcpy|premap|full)", s)
	}
}

// fleetOpts collects the fleet-mode flags.
type fleetOpts struct {
	vms       int
	stagger   bool
	maxPaused int
	windows   bool
	workload  string
	epochs    int
	interval  time.Duration
	attack    string
	slo       time.Duration
	cfg       crimes.Config
}

// runFleet protects several co-located VMs at once, each running the
// selected workload, and prints the per-VM fleet table. With -attack,
// the attack is injected into vm0's final epoch only — its neighbors
// keep running their clean epochs, demonstrating failure isolation.
func runFleet(o fleetOpts) error {
	spec, err := workload.ParsecByName(o.workload)
	if err != nil {
		return err
	}
	f, err := fleet.New(fleet.Config{
		VMs:        o.vms,
		GuestPages: 1024,
		MaxPaused:  o.maxPaused,
		Stagger:    o.stagger,
		Windows:    o.windows,
		SLO:        slo.Config{TargetP99: o.slo},
		Core:       o.cfg,
	})
	if err != nil {
		return err
	}
	defer f.Close()

	runners := make([]*workload.Runner, o.vms)
	for i := range runners {
		runners[i] = workload.NewRunner(spec, 64)
	}
	rep := f.Run(o.epochs, func(vm *fleet.VM, epoch int) func(*guestos.Guest) error {
		r := runners[vm.Index]
		last := epoch == o.epochs
		return func(g *guestos.Guest) error {
			if err := r.RunEpoch(g, o.interval); err != nil {
				return err
			}
			if last && o.attack != "" && vm.Index == 0 {
				return inject(g, r.PID(), o.attack)
			}
			return nil
		}
	})
	fmt.Print(rep.Render())
	for _, vm := range f.VMs() {
		s := vm.Stats()
		if s.Err != "" && !s.Halted {
			fmt.Printf("%s stopped: %s\n", s.Name, s.Err)
		}
	}
	return nil
}

// clusterOpts collects the cluster-mode flags.
type clusterOpts struct {
	hosts     int
	vms       int
	stagger   bool
	maxPaused int
	windows   bool
	workload  string
	epochs    int
	interval  time.Duration
	attack    string
	hostKill  string
	slo       time.Duration
	cfg       crimes.Config
}

// runCluster protects VMs across several simulated hosts: ring
// placement, anti-affine replicas, and — with -host-kill — a mid-run
// host failure the control plane fails over transparently. With
// -attack, the attack is injected into vm0's final epoch.
func runCluster(o clusterOpts) error {
	spec, err := workload.ParsecByName(o.workload)
	if err != nil {
		return err
	}
	cl, err := cluster.New(cluster.Config{
		Hosts:            o.hosts,
		VMs:              o.vms,
		MaxPausedPerHost: o.maxPaused,
		Stagger:          o.stagger,
		Windows:          o.windows,
		SLO:              slo.Config{TargetP99: o.slo},
		Core:             o.cfg,
	})
	if err != nil {
		return err
	}
	defer cl.Close()

	for _, vm := range cl.VMs() {
		if r := vm.ReplicaHostName(); r != "" {
			fmt.Printf("placed %s on %s, replica on %s\n", vm.Name, vm.HostName(), r)
		} else {
			fmt.Printf("placed %s on %s, unreplicated\n", vm.Name, vm.HostName())
		}
	}
	if o.hostKill != "" {
		host, round, err := parseHostKill(o.hostKill)
		if err != nil {
			return err
		}
		cl.KillHostAt(host, round)
		fmt.Printf("scheduled %s to die at round %d\n", host, round)
	}

	runners := make([]*workload.Runner, o.vms)
	for i := range runners {
		runners[i] = workload.NewRunner(spec, 64)
	}
	rep := cl.Run(o.epochs, func(vm *cluster.VM, round int) func(*guestos.Guest) error {
		r := runners[vm.Index]
		last := round == o.epochs
		return func(g *guestos.Guest) error {
			if err := r.RunEpoch(g, o.interval); err != nil {
				return err
			}
			if last && o.attack != "" && vm.Index == 0 {
				return inject(g, r.PID(), o.attack)
			}
			return nil
		}
	})
	fmt.Print(rep.Render())
	for _, vm := range cl.VMs() {
		s := vm.Stats()
		if s.Err != "" && !s.Halted {
			fmt.Printf("%s stopped: %s\n", s.Name, s.Err)
		}
		if vm.Promotions > 0 {
			fmt.Printf("%s failed over to %s (replica now on %s)\n",
				vm.Name, vm.HostName(), vm.ReplicaHostName())
		}
	}
	return nil
}

// parseHostKill parses the -host-kill host:round spec.
func parseHostKill(spec string) (string, int, error) {
	i := strings.LastIndex(spec, ":")
	if i <= 0 {
		return "", 0, fmt.Errorf("bad -host-kill spec %q (want host:round)", spec)
	}
	round, err := strconv.Atoi(spec[i+1:])
	if err != nil || round < 1 {
		return "", 0, fmt.Errorf("bad -host-kill round %q (want a positive integer)", spec[i+1:])
	}
	return spec[:i], round, nil
}

// parseFault builds an injector from a site:N[:transient] spec.
func parseFault(spec string) (*crimes.FaultInjector, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("bad -fault spec %q (want site:N[:transient])", spec)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 1 {
		return nil, fmt.Errorf("bad -fault occurrence %q (want a positive integer)", parts[1])
	}
	transient := false
	if len(parts) == 3 {
		if parts[2] != "transient" {
			return nil, fmt.Errorf("bad -fault modifier %q (want \"transient\")", parts[2])
		}
		transient = true
	}
	inj := &crimes.FaultInjector{}
	inj.Fail(parts[0], n, 1, transient)
	return inj, nil
}

// reportCommit prints the commit's measured parallel phase timings and
// the pipelined remote-replication window state. The serial path (one
// worker, no remote activity) prints nothing, keeping the default
// output identical to previous releases.
func reportCommit(rep crimes.CommitReport) {
	t := rep.Timings
	if t.Workers > 1 {
		fmt.Printf("  parallel: workers=%d scan=%v memcpy=%v diskcopy=%v ship=%v\n",
			t.Workers, t.Scan.Round(time.Microsecond),
			t.MemCopy.Round(time.Microsecond), t.DiskCopy.Round(time.Microsecond),
			t.RemoteShip.Round(time.Microsecond))
	}
	if rep.RemoteInFlight > 0 || rep.RemoteAcked > 0 {
		fmt.Printf("  remote: in-flight=%d acked=%d\n", rep.RemoteInFlight, rep.RemoteAcked)
	}
}

// reportRecovery prints any retries, degradations, or unwinds an epoch
// needed; a clean recovery prints nothing.
func reportRecovery(rec crimes.Recovery) {
	if rec.Clean() {
		return
	}
	if rec.Retries > 0 {
		fmt.Printf("  recovery: %d transient failure(s) retried\n", rec.Retries)
	}
	if rec.Unwind != crimes.UnwindNone {
		fmt.Printf("  recovery: unwound via %s\n", rec.Unwind)
	}
	for _, d := range rec.Degradations {
		fmt.Printf("  degraded: %s\n", d)
	}
	for _, w := range rec.Warnings {
		fmt.Printf("  warning: %s\n", w)
	}
}

func runHoneypot(sys *crimes.System, pid uint32) error {
	fmt.Println("converting compromised VM into a monitored honeypot...")
	hp, err := honeypot.Convert(sys.Guest)
	if err != nil {
		return err
	}
	// Simulated continued attacker activity inside the quarantine.
	if _, err := hp.RunEpoch(func(g *guestos.Guest) error {
		if err := g.SendPacket(pid, [4]byte{66, 66, 66, 66}, 6666, []byte("c2 beacon")); err != nil {
			return err
		}
		return g.HijackSyscall(3, 0xdead)
	}); err != nil {
		return err
	}
	if err := hp.Release(); err != nil {
		return err
	}
	fmt.Println(hp.Report())
	return nil
}

// listScenarios prints the catalog: one line per scenario with its
// family, config arm, and expected outcome, then the family and arm
// vocabularies the -scenario selectors accept.
func listScenarios(w io.Writer) error {
	fmt.Fprintf(w, "%-28s %-14s %-15s %s\n", "SCENARIO", "FAMILY", "ARM", "EXPECTED")
	for _, s := range scenario.Catalog() {
		fmt.Fprintf(w, "%-28s %-14s %-15s %s\n", s.Name, s.Family, s.Arm, s.Expect.Outcome)
	}
	fmt.Fprintf(w, "\nfamilies: %s\n", strings.Join(scenario.Families(), ", "))
	fmt.Fprintf(w, "arms:     %s\n", strings.Join(scenario.ArmNames(), ", "))
	return nil
}

// runScenarios executes a catalog selection — a scenario name, "all",
// or "family:F" — and fails on any outcome drift.
func runScenarios(w io.Writer, sel, traceDir string) error {
	var list []scenario.Scenario
	switch {
	case sel == "all":
		list = scenario.Catalog()
	case strings.HasPrefix(sel, "family:"):
		fam := strings.TrimPrefix(sel, "family:")
		list = scenario.ByFamily(fam)
		if len(list) == 0 {
			return fmt.Errorf("no scenarios in family %q (families: %s)",
				fam, strings.Join(scenario.Families(), ", "))
		}
	default:
		s, err := scenario.ByName(sel)
		if err != nil {
			return fmt.Errorf("%w (try -scenario-list)", err)
		}
		list = []scenario.Scenario{s}
	}
	failed := 0
	fmt.Fprintf(w, "%-28s %-14s %-15s %-9s %-9s %s\n",
		"SCENARIO", "FAMILY", "ARM", "EXPECTED", "ACTUAL", "STATUS")
	for _, s := range list {
		r, err := scenario.Run(s, scenario.Options{TraceDir: traceDir})
		if err != nil {
			return err
		}
		status := "PASS"
		if !r.Pass {
			status = "FAIL: " + r.Why
			failed++
		}
		fmt.Fprintf(w, "%-28s %-14s %-15s %-9s %-9s %s\n",
			r.Name, r.Family, r.Arm, r.Expected, r.Actual, status)
	}
	fmt.Fprintf(w, "\n%d/%d scenarios matched their expected outcome\n", len(list)-failed, len(list))
	if failed > 0 {
		return fmt.Errorf("%d scenario(s) drifted from their recorded outcome", failed)
	}
	return nil
}

func inject(g *guestos.Guest, pid uint32, kind string) error {
	switch kind {
	case "overflow":
		_, err := workload.InjectOverflow(g, pid, 64, 16)
		return err
	case "malware":
		_, err := workload.InjectMalware(g)
		return err
	case "hijack":
		return workload.InjectSyscallHijack(g, 11)
	case "hidden":
		_, err := workload.InjectHiddenProcess(g, "lurker")
		return err
	default:
		return errors.New("unknown attack: " + kind)
	}
}
