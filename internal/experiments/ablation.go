package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/workload"
)

// AblationSummary renders the modeled cost of each extension and design
// choice against the baseline configuration, complementing the real
// `go test -bench Ablation` measurements.
func AblationSummary() (*Result, error) {
	m := cost.Default()
	epoch := 200 * time.Millisecond
	spec, err := workload.ParsecByName("swaptions")
	if err != nil {
		return nil, err
	}
	base := epochCounts(spec, epoch)

	var b strings.Builder
	renderHeader(&b, "Ablation summary (modeled, swaptions, 200ms epoch, Full opt)")
	fmt.Fprintf(&b, "%-46s %12s %10s\n", "Configuration", "pause (ms)", "vs base")
	basePause := pause(m, cost.Full, base, cost.PauseCtx{}).Total()
	row := func(name string, p time.Duration) {
		fmt.Fprintf(&b, "%-46s %12.2f %9.2fx\n", name, ms(p), float64(p)/float64(basePause))
	}
	row("baseline (local memory checkpoint)", basePause)

	withDisk := base
	withDisk.DiskBlocks = 256
	withDisk.BytesCopied += withDisk.DiskBlocks * 4096
	row("+ disk snapshots (256 dirty blocks)", pause(m, cost.Full, withDisk, cost.PauseCtx{}).Total())

	withRemote := base
	withRemote.RemotePages = base.DirtyPages
	row("+ remote HA replication", pause(m, cost.Full, withRemote, cost.PauseCtx{}).Total())

	row("async scan (audit off the pause path)", pause(m, cost.Full, base, cost.PauseCtx{AsyncScan: true}).Total())

	noScope := base
	noScope.Canaries = 2048 // full canary table instead of dirty-scoped
	row("full canary scan (no dirty scoping)", pause(m, cost.Full, noScope, cost.PauseCtx{}).Total())

	fmt.Fprintf(&b, "\nDeep psscan of a %d-page VM at audit time would add ~%.0f ms —\n",
		workload.PaperVMPages, m.VolatilityScanNs/1e6)
	b.WriteString("infeasible synchronously, which is why Volatility-grade scans run async (§5.3).\n")
	return &Result{ID: "ablation", Title: "Extension ablations", Text: b.String()}, nil
}
