package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/obs_surface.* from the current code")

// wallClockFamilies are the histogram families fed by time.Now: their
// bucket and sum lines differ run to run, their count lines do not.
var wallClockFamilies = []string{"crimes_commit_phase_ns", "crimes_remote_ack_ns", "crimes_gate_wait_ns"}

// obsSurface runs four epochs of the scripted workload plus Close on one
// serial VM and returns the JSONL trace and the metrics dump with every
// wall-clock value removed: the commit event's dur_ns is zeroed and the
// wall-clock histograms keep only their _count lines.
func obsSurface(t *testing.T, cfg Config, remote bool) (trace, metrics string) {
	t.Helper()
	o, sink := newCollector()
	cfg.EpochInterval = 20 * time.Millisecond
	cfg.Modules = defaultModules()
	cfg.Workers = 1
	cfg.Obs = o
	ctl, _, _ := newFaultController(t, cfg)
	if remote {
		if err := ctl.Checkpointer().EnableRemoteReplication([]byte("0123456789abcdef")); err != nil {
			t.Fatalf("EnableRemoteReplication: %v", err)
		}
	}
	work := scriptedWork(cfg.DiskBlocks > 0)
	for n := 1; n <= 4; n++ {
		if res, err := ctl.RunEpoch(work); err != nil || res.Incident != nil {
			t.Fatalf("epoch %d: err=%v incident=%v", n, err, res.Incident)
		}
	}
	if err := ctl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	var tb bytes.Buffer
	for _, ev := range sink.Events() {
		if ev.Phase == obs.PhaseCommit {
			ev.DurNs = 0
		}
		line, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("marshal %+v: %v", ev, err)
		}
		tb.Write(line)
		tb.WriteByte('\n')
	}
	var mb strings.Builder
lines:
	for _, line := range strings.SplitAfter(o.Registry().DumpString(), "\n") {
		for _, fam := range wallClockFamilies {
			if strings.HasPrefix(line, fam+"_bucket") || strings.HasPrefix(line, fam+"_sum") {
				continue lines
			}
		}
		mb.WriteString(line)
	}
	return tb.String(), mb.String()
}

// TestObsSurfaceGolden pins the whole observability surface — every
// trace field and every metric series — of a run with the scan cache,
// the CoW commit, the delta+dedup wire, remote replication and a disk
// all on, against files captured before the counter sets were folded
// into one declaration each. A second run with every mode off pins that
// the mode-gated series stay out of its dump.
func TestObsSurfaceGolden(t *testing.T) {
	trace, metrics := obsSurface(t, Config{
		ScanCache:  ScanCacheOn,
		CoW:        true,
		Remus:      RemusDeltaDedup,
		DiskBlocks: 64,
	}, true)
	for name, got := range map[string]string{"obs_surface.jsonl": trace, "obs_surface.prom": metrics} {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s moved (rerun with -update only for a deliberate surface change)\n--- got\n%s--- want\n%s", name, got, want)
		}
	}
	for _, key := range []string{`"hypercalls":{`, `"scan_cache":{`, `"cow":{`, `"repl":{`, `"phase":"replicate"`} {
		if !strings.Contains(trace, key) {
			t.Errorf("golden run's trace never carries %s", key)
		}
	}

	offTrace, offMetrics := obsSurface(t, Config{}, false)
	for _, fam := range []string{"crimes_scan_cache_", "crimes_cow_", "crimes_remus_"} {
		if strings.Contains(offMetrics, fam) {
			t.Errorf("all-modes-off dump carries a %s* series:\n%s", fam, offMetrics)
		}
	}
	for _, key := range []string{`"scan_cache"`, `"cow"`, `"repl"`} {
		if strings.Contains(offTrace, key) {
			t.Errorf("all-modes-off trace carries %s", key)
		}
	}
}
