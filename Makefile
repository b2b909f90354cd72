GO ?= go

.PHONY: build test verify verify-quick bench bench-all pause-json bench-fleet \
	bench-scan bench-cow bench-remus bench-cluster bench-web experiments-golden \
	fmt-check static-check ci bench-drift scenarios test-procs traced-runs loc fuzz-smoke \
	race-share

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

# Full verification: static analysis plus the race detector over the
# whole tree (the parallel pause path runs real worker pools).
verify: build
	$(GO) vet ./...
	$(GO) test -race ./...

# Short race pass over just the packages with real concurrency: the
# checkpoint's shipper and disk stage, the concurrent detector scan, the
# controller that drives both, the fleet scheduler running many
# controllers on one shared hypervisor, the machine frame table whose
# lock those VMs share (commits share and exchange frames under it), and
# the observability layer they all emit into — then the traced
# end-to-end runs.
verify-quick: traced-runs
	$(GO) test -race ./internal/checkpoint ./internal/detect ./internal/core ./internal/mem ./internal/hv ./internal/fleet ./internal/cluster ./internal/obs

# Traced end-to-end runs under the race detector, the one copy of the
# commands and their assertions (CI and verify-quick both call this):
# many VMs emitting into one shared tracer and registry — eagerly, with
# the CoW commit's write faults live, over the delta+dedup wire, across
# a host kill, and under the SLO controller. Every run must leave a
# non-empty trace and metrics dump; the mode's own events and series
# must be in them. The rollback runs fail a commit before its
# publication — a page's copy fault at Full, at Full under CoW and at
# Memcpy, the conduit send at No-opt: the VM must roll back, sharing the
# pages its dirty log names back from the committed image (exit status
# 1, a rollback event). The incident run attacks a CoW VM: the first
# committed image, the derived audit-fail dump and the rollback from
# that image must end in a pinpointed overflow.
TRACED_DIR ?= /tmp/crimes-traced-runs
define traced
$(GO) run -race ./cmd/crimes $(2) -trace $(TRACED_DIR)/$(1).jsonl -metrics $(TRACED_DIR)/$(1).txt >/dev/null
test -s $(TRACED_DIR)/$(1).jsonl && test -s $(TRACED_DIR)/$(1).txt
endef
define rollback
$(GO) run -race ./cmd/crimes $(2) -trace $(TRACED_DIR)/$(1).jsonl -metrics $(TRACED_DIR)/$(1).txt >/dev/null 2>$(TRACED_DIR)/$(1).err; test $$? -eq 1
test -s $(TRACED_DIR)/$(1).jsonl && test -s $(TRACED_DIR)/$(1).txt
grep -q '"action":"rollback"' $(TRACED_DIR)/$(1).jsonl
endef
traced-runs:
	mkdir -p $(TRACED_DIR)
	$(call traced,fleet,-vms 3 -stagger -epochs 2)
	$(call traced,cow,-vms 3 -stagger -epochs 2 -cow)
	$(call rollback,rollback,-epochs 4 -fault checkpoint.copypage:30)
	$(call rollback,rollback-cow,-epochs 4 -cow -fault checkpoint.copypage:30)
	$(call rollback,rollback-memcpy,-epochs 4 -opt memcpy -fault checkpoint.copypage:30)
	$(call rollback,rollback-noopt,-epochs 4 -opt noopt -fault remus.send:2)
	$(call traced,delta,-vms 3 -stagger -epochs 2 -remus delta+dedup -opt noopt)
	grep -q crimes_remus_bytes_total $(TRACED_DIR)/delta.txt
	$(call traced,cluster,-hosts 3 -vms 6 -epochs 4 -host-kill host1:3)
	grep -q '"hostdown"' $(TRACED_DIR)/cluster.jsonl
	grep -q '"promote"' $(TRACED_DIR)/cluster.jsonl
	grep -q 'crimes_cluster_lost_vms 0' $(TRACED_DIR)/cluster.txt
	$(call traced,slo,-vms 8 -stagger -epochs 4 -slo 2500us)
	grep -q '"slo"' $(TRACED_DIR)/slo.jsonl
	grep -q crimes_slo_steps_total $(TRACED_DIR)/slo.txt
	$(call traced,incident,-epochs 3 -cow -attack overflow)
	grep -q '"action":"pinpointed"' $(TRACED_DIR)/incident.jsonl

# Scheduling-independence gate: the packages with long-lived goroutines
# (restore loop, pipelined shipper, the controller driving them, the
# committed-image readers running alongside commits, the cluster
# promoting from controller state, guest processes shared copy-on-write
# across guests and States, module forks sharing the walk memo's trace
# set, commits sharing frames under the machine lock that neighbouring
# VMs resolve theirs through) must pass repeatedly on one, two and eight
# processors — what an epoch reports is a function of its inputs, never
# of which goroutine won a race.
test-procs:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p $(GO) test -count=5 ./internal/remus ./internal/checkpoint ./internal/core ./internal/cluster ./internal/detect ./internal/guestos ./internal/vmi ./internal/mem ./internal/hv || exit 1; \
	done

# gofmt gate: fail listing any file that is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# staticcheck gate: runs when the binary is installed (CI installs it);
# skipped silently elsewhere so `make ci` needs nothing beyond the Go
# toolchain.
static-check:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; fi

# Scenario outcome gate: the full adversarial matrix (attack family x
# workload x fault schedule x config arm) with recorded expected
# outcomes. Any drift — a detection lost, an expected evasion suddenly
# detected, a clean arm raising findings — fails the run.
scenarios: build
	$(GO) run ./cmd/crimes -scenario all

# Regenerate every committed artifact in one pass — the BENCH_*.json
# files and the experiments' text/CSV goldens; the single source of
# truth for what "all benchmarks" means.
bench-all: pause-json bench-fleet bench-scan bench-cow bench-remus bench-cluster bench-web experiments-golden

# Benchmark drift gate: the BENCH_*.json artifacts and the experiment
# goldens are priced by the deterministic cost model, so regenerating
# them must be a no-op. Any diff means a change altered the priced pause
# path or a table's layout (or the artifacts were not regenerated) and
# must be committed deliberately.
bench-drift: bench-all
	git diff --exit-code BENCH_*.json internal/experiments/testdata

# Short fuzz pass over the page-wise Volatility scanners, the VMI
# canary-table decoder and incremental canary index, the v1 and v2
# replication restores, and the committed image: besides never
# panicking, the scanners and the canary table must return exactly what
# their linear reference decoders return — the scanners over the
# contiguous image, the canary table over any header words, the index
# after any sequence of table and canary writes fed through the dirty
# bitmap — a restore that rejects a batch must leave every page of the
# replica as it was, and every committed image, which aliases the
# backup's pages, must keep the bytes it was returned with through any
# sequence of writes, commits, faults and rollbacks.
fuzz-smoke:
	$(FUZZ) -fuzz FuzzPsScan ./internal/volatility
	$(FUZZ) -fuzz '^FuzzCanaryTable$$' ./internal/vmi
	$(FUZZ) -fuzz '^FuzzCanaryIndex$$' ./internal/vmi
	$(FUZZ) -fuzz '^FuzzRestoreV1$$' ./internal/remus
	$(FUZZ) -fuzz '^FuzzRestoreDecodeV2$$' ./internal/remus
	$(FUZZ) -fuzz '^FuzzCommittedImage$$' ./internal/checkpoint
	$(FUZZ) -fuzz '^FuzzDemandZeroMachine$$' ./internal/mem

# FUZZ runs one fuzz target for ten seconds. Minimizing a new
# interesting input runs the target over and over without counting the
# runs, and for inputs of a few kilobytes its passes over every byte and
# every span of bytes outlast the whole run; so each minimization is
# bounded to 100 runs. A failing input is still reported, less minimized.
FUZZ = $(GO) test -run '^$$' -fuzztime 10s -fuzzminimizetime 100x

# Page sharing under the race detector, ten times over: a commit shares
# the dirty pages with the backup and the guest copies a page on its
# next write, with no lock, so the order of a guest's copy against the
# commit, the pipelined shipper, the readers of committed images and a
# neighbouring VM's commits is the invariant; a pipelined shipment's
# pages come from the spares the guest's copies take from, and must stay
# the shipment's until its ack. One -race pass samples few
# interleavings.
race-share:
	$(GO) test -race -count=10 -run 'TestShare|TestZeroWritten|TestExchangeAlongsideNeighbourAccess|TestShipmentPagesHeldUntilAck' ./internal/mem ./internal/hv ./internal/checkpoint

# Everything the CI workflow runs, in the same order, for local use.
ci: fmt-check static-check build
	$(GO) vet ./...
	$(GO) test -shuffle=on ./...
	$(GO) test -race ./...
	$(MAKE) race-share
	$(MAKE) fuzz-smoke
	$(MAKE) test-procs
	$(MAKE) traced-runs
	$(MAKE) scenarios
	$(MAKE) bench-drift

bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# Go line counts (wc -l) per package directory, non-test and test files
# apart, with the sum — over every package, or over the directories in
# PKGS (make loc PKGS="internal/core internal/obs"). The before/after
# table of a simplicity PR comes from here.
loc:
	@dirs="$(PKGS)"; \
	[ -n "$$dirs" ] || dirs=$$(find . -name '*.go' -not -path './.bench_build/*' -exec dirname {} + | sort -u | sed 's|^\./||'); \
	count() { ls $$1/*.go 2>/dev/null | grep $$2 '_test\.go$$' | xargs -r cat | wc -l; }; \
	printf '%-28s %9s %9s\n' package non-test test; \
	for d in $$dirs; do \
		n=$$(count $$d -v); t=$$(count $$d -e); sn=$$((sn+n)); st=$$((st+t)); \
		printf '%-28s %9d %9d\n' $$d $$n $$t; \
	done; \
	printf '%-28s %9d %9d\n' sum $$sn $$st

# Regenerate the machine-readable parallel pause-path benchmark.
pause-json:
	$(GO) run ./cmd/crimes-bench -pause-json BENCH_pause.json

# Regenerate the machine-readable fleet-scheduling benchmark. The sweep
# is priced by the deterministic cost model (fixed workload counts, no
# wall-clock inputs), so the output is byte-stable across runs.
bench-fleet:
	$(GO) run ./cmd/crimes-bench -fleet-json BENCH_fleet.json

# Regenerate the machine-readable scan-path cache benchmark. This one
# runs the real controller (two arms: per-epoch mappings vs persistent
# cache) with Workers=1 and a fixed seed, so it too is byte-stable.
bench-scan:
	$(GO) run ./cmd/crimes-bench -scan-json BENCH_scan.json

# Regenerate the machine-readable CoW commit benchmark: the real
# controller sweeps working-set sizes under the eager and copy-on-write
# commits with Workers=1 and a fixed seed, so it too is byte-stable.
bench-cow:
	$(GO) run ./cmd/crimes-bench -cow-json BENCH_cow.json

# Regenerate the machine-readable delta-replication benchmark: the real
# controller sweeps dirty-set sizes and rewrite locality under the raw,
# delta, and delta+dedup wire protocols with Workers=1 and a fixed
# seed, so it too is byte-stable.
bench-remus:
	$(GO) run ./cmd/crimes-bench -remus-json BENCH_remus.json

# Regenerate the machine-readable web-scale load benchmark: every
# protection arm's epoch timeline is captured from the real controller
# with Workers=1 base configs and fixed seeds, then replayed into the
# deterministic cohort load generator in virtual time, so the output is
# byte-stable.
bench-web:
	$(GO) run ./cmd/crimes-bench -web-json BENCH_web.json

# Regenerate the text and CSV goldens of the 18 deterministic
# experiments (internal/experiments/testdata/<id>.txt, .csv).
experiments-golden:
	$(GO) test ./internal/experiments -run TestExperimentGoldens -count=1 -update

# Regenerate the machine-readable multi-host cluster benchmark: the
# scale and ring sections are priced by the deterministic cost model
# and hash ring, and the failover section drives the real control
# plane (kill vs no-kill arms) with Workers=1 and a fixed seed, so the
# output is byte-stable.
bench-cluster:
	$(GO) run ./cmd/crimes-bench -cluster-json BENCH_cluster.json
