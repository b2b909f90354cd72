package crimes

// Ablation benchmarks for the design choices DESIGN.md calls out:
// dirty-page-scoped canary scans, sync vs async scanning, checkpoint
// history depth, disk checkpointing, and remote HA replication.

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/cost"
	"repro/internal/detect"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/mem"
	"repro/internal/vdisk"
	"repro/internal/vmi"
)

// BenchmarkAblationCanaryScanScope compares the §3.2 dirty-page-scoped
// canary scan against a full-table scan. With few dirtied pages, the
// scoped scan touches only the affected canaries.
func BenchmarkAblationCanaryScanScope(b *testing.B) {
	h := hv.New(4112)
	dom, err := h.CreateDomain("guest", 4096)
	if err != nil {
		b.Fatal(err)
	}
	g, err := guestos.Boot(dom, guestos.BootConfig{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	pid, err := g.StartProcess("app", 0, 256)
	if err != nil {
		b.Fatal(err)
	}
	var lastVA uint64
	for i := 0; i < 1500; i++ {
		if lastVA, err = g.Malloc(pid, 128); err != nil {
			b.Fatal(err)
		}
	}
	ctx, err := vmi.NewContext(dom, g.Profile(), g.SystemMap())
	if err != nil {
		b.Fatal(err)
	}
	// A sparse dirty bitmap: one touched page (the last allocation's).
	dirty := mem.NewBitmap(dom.Pages())
	pa, err := g.TranslateUser(pid, lastVA)
	if err != nil {
		b.Fatal(err)
	}
	dirty.Set(int(pa >> mem.PageShift))

	b.Run("full-scan", func(b *testing.B) {
		sc := &detect.ScanContext{VMI: ctx, Counts: &detect.ScanCounts{}}
		for i := 0; i < b.N; i++ {
			if _, err := (detect.CanaryModule{}).Scan(sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dirty-scoped", func(b *testing.B) {
		sc := &detect.ScanContext{VMI: ctx, Dirty: dirty, Counts: &detect.ScanCounts{}}
		for i := 0; i < b.N; i++ {
			if _, err := (detect.CanaryModule{}).Scan(sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationScanMode compares synchronous audits (inside the
// pause) against asynchronous audits of the last checkpoint.
func BenchmarkAblationScanMode(b *testing.B) {
	for _, mode := range []ScanMode{ScanSync, ScanAsync} {
		b.Run(mode.String(), func(b *testing.B) {
			sys, err := Launch(Options{GuestPages: 1024, Config: Config{
				EpochInterval: 50 * time.Millisecond,
				Scan:          mode,
			}})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			var pid uint32
			if _, err := sys.RunEpoch(func(g *guestos.Guest) error {
				pid, err = g.StartProcess("app", 0, 32)
				return err
			}); err != nil {
				b.Fatal(err)
			}
			payload := bytes.Repeat([]byte{1}, 256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.RunEpoch(func(g *guestos.Guest) error {
					return g.WriteUser(pid, g.Profile().UserVirtBase, payload)
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHistoryDepth measures the cost of retaining a
// checkpoint history (the paper keeps only the most recent checkpoint).
func BenchmarkAblationHistoryDepth(b *testing.B) {
	for _, depth := range []int{0, 4} {
		name := "none"
		if depth > 0 {
			name = "depth-4"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := Launch(Options{GuestPages: 1024, Config: Config{
				EpochInterval: 50 * time.Millisecond,
				HistoryDepth:  depth,
			}})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			var pid uint32
			if _, err := sys.RunEpoch(func(g *guestos.Guest) error {
				pid, err = g.StartProcess("app", 0, 16)
				return err
			}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.RunEpoch(func(g *guestos.Guest) error {
					return g.Compute(pid, 1)
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDiskCheckpoint measures the marginal cost of the
// disk-snapshot extension.
func BenchmarkAblationDiskCheckpoint(b *testing.B) {
	for _, blocks := range []int{0, 64} {
		name := "mem-only"
		if blocks > 0 {
			name = "with-disk"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := Launch(Options{GuestPages: 1024, Config: Config{
				EpochInterval: 50 * time.Millisecond,
				DiskBlocks:    blocks,
			}})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			var pid uint32
			if _, err := sys.RunEpoch(func(g *guestos.Guest) error {
				pid, err = g.StartProcess("db", 0, 16)
				return err
			}); err != nil {
				b.Fatal(err)
			}
			row := bytes.Repeat([]byte{7}, 512)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.RunEpoch(func(g *guestos.Guest) error {
					if blocks > 0 {
						if err := g.WriteBlock(pid, i%blocks, 0, row); err != nil {
							return err
						}
					}
					return g.WriteUser(pid, g.Profile().UserVirtBase, row)
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRemoteReplication measures the added cost of
// shipping checkpoints to a remote backup on top of local Full
// optimization (the paper's HA + security configuration).
func BenchmarkAblationRemoteReplication(b *testing.B) {
	for _, remote := range []bool{false, true} {
		name := "local-only"
		if remote {
			name = "local+remote"
		}
		b.Run(name, func(b *testing.B) {
			const pages = 1024
			h := hv.New(3*pages + 16)
			dom, err := h.CreateDomain("vm", pages)
			if err != nil {
				b.Fatal(err)
			}
			c, err := checkpoint.NewWithParams(h, dom, checkpoint.Params{Opt: cost.Full})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			if remote {
				if err := c.EnableRemoteReplication([]byte("0123456789abcdef")); err != nil {
					b.Fatal(err)
				}
			}
			data := bytes.Repeat([]byte{3}, mem.PageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for p := 0; p < 64; p++ {
					if err := dom.WritePhys(uint64(p)*16*mem.PageSize, data); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if _, err := c.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDeepScan compares the per-checkpoint cross-view scan
// against the full-memory deep sweep (why deep scans belong in async
// mode).
func BenchmarkAblationDeepScan(b *testing.B) {
	h := hv.New(2064)
	dom, err := h.CreateDomain("guest", 2048)
	if err != nil {
		b.Fatal(err)
	}
	g, err := guestos.Boot(dom, guestos.BootConfig{Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.StartProcess("app", 0, 8); err != nil {
		b.Fatal(err)
	}
	ctx, err := vmi.NewContext(dom, g.Profile(), g.SystemMap())
	if err != nil {
		b.Fatal(err)
	}
	sc := &detect.ScanContext{VMI: ctx, Counts: &detect.ScanCounts{}}
	b.Run("cross-view", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (detect.HiddenProcessModule{}).Scan(sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("deep-psscan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (detect.DeepScanModule{}).Scan(sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	_ = vdisk.BlockSize
}
