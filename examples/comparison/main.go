// Comparison: the paper's core trade-off (§1, §5.2) on one bug. The
// same heap overflow runs three ways:
//
//  1. unprotected — the corruption and exfiltration go through;
//  2. AddressSanitizer-style inline checking — caught at the exact
//     write, but every access pays the instrumentation tax (+40-60%);
//  3. CRIMES — execution runs at near-native speed and the attack is
//     caught at the epoch boundary, with outputs still buffered (zero
//     external impact) and replay recovering the exact write anyway.
package main

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"time"

	"repro/internal/cost"
	"repro/internal/guestos"
	"repro/internal/hv"
	"repro/internal/workload"

	crimes "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func overflowEpoch(g *guestos.Guest, pid uint32, buf uint64) error {
	if err := g.WriteUser(pid, buf, bytes.Repeat([]byte{'A'}, 80)); err != nil {
		return err
	}
	return g.SendPacket(pid, [4]byte{203, 0, 113, 9}, 4444, []byte("stolen"))
}

func run() error {
	spec, err := workload.ParsecByName("swaptions")
	if err != nil {
		return err
	}
	m := cost.Default()
	epoch := 200 * time.Millisecond
	dirty := spec.DirtyPages(epoch)
	phases, _ := m.Pause(cost.Full, cost.Counts{
		TotalPages:  workload.PaperVMPages,
		DirtyPages:  dirty,
		BytesCopied: dirty * 4096,
	}, cost.PauseCtx{})
	pause := phases.Total()

	fmt.Println("scenario 1: unprotected")
	if err := runUnprotected(); err != nil {
		return err
	}

	fmt.Println("\nscenario 2: AddressSanitizer-style inline checking")
	if err := runASan(); err != nil {
		return err
	}
	fmt.Printf("  runtime tax on %s: ~%.0f%% on every access (paper: 40-60%%)\n",
		spec.Name, 100*(spec.ASanFactor-1))

	fmt.Println("\nscenario 3: CRIMES")
	if err := runCRIMES(); err != nil {
		return err
	}
	fmt.Printf("  runtime tax on %s: ~%.1f%% (one %.1fms scan+checkpoint per %v epoch)\n",
		spec.Name, 100*float64(pause)/float64(epoch), pause.Seconds()*1000, epoch)
	return nil
}

func runUnprotected() error {
	h := hv.New(530)
	dom, err := h.CreateDomain("bare", 512)
	if err != nil {
		return err
	}
	g, err := guestos.Boot(dom, guestos.BootConfig{})
	if err != nil {
		return err
	}
	var out capture
	g.SetOutputSink(&out)
	pid, _ := g.StartProcess("victim", 0, 8)
	buf, _ := g.Malloc(pid, 64)
	if err := overflowEpoch(g, pid, buf); err != nil {
		return err
	}
	fmt.Printf("  overflow executed, canary silently corrupted, %d packet(s) LEFT THE SYSTEM\n", out.n)
	return nil
}

func runASan() error {
	h := hv.New(530)
	dom, err := h.CreateDomain("asan", 512)
	if err != nil {
		return err
	}
	g, err := guestos.Boot(dom, guestos.BootConfig{})
	if err != nil {
		return err
	}
	g.SetMemcheck(true)
	pid, _ := g.StartProcess("victim", 0, 8)
	buf, _ := g.Malloc(pid, 64)
	err = overflowEpoch(g, pid, buf)
	if !errors.Is(err, guestos.ErrMemcheck) {
		return fmt.Errorf("expected inline detection, got %v", err)
	}
	fmt.Printf("  caught inline at the write: %v\n", err)
	return nil
}

func runCRIMES() error {
	sys, err := crimes.Launch(crimes.Options{
		Config: crimes.Config{EpochInterval: 50 * time.Millisecond, ReplayOnIncident: true},
	})
	if err != nil {
		return err
	}
	defer sys.Close()
	var pid uint32
	var buf uint64
	if _, err := sys.RunEpoch(func(g *guestos.Guest) error {
		if pid, err = g.StartProcess("victim", 0, 8); err != nil {
			return err
		}
		buf, err = g.Malloc(pid, 64)
		return err
	}); err != nil {
		return err
	}
	res, err := sys.RunEpoch(func(g *guestos.Guest) error {
		return overflowEpoch(g, pid, buf)
	})
	if err != nil {
		return err
	}
	if res.Incident == nil {
		return errors.New("CRIMES missed the overflow")
	}
	fmt.Printf("  caught at the epoch boundary; %d buffered output(s) discarded; replay pinpointed: %s\n",
		sys.Controller.Buffer().Discarded(), res.Incident.Pinpoint.Describe())
	return nil
}

type capture struct{ n int }

func (c *capture) SendPacket(guestos.Packet)   { c.n++ }
func (c *capture) WriteDisk(guestos.DiskWrite) {}
