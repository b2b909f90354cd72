// Webserver: the §5.4 trade-off for latency-sensitive guests. A web
// server runs under CRIMES at several epoch intervals in both safety
// modes; the closed-loop client's normalized latency and throughput
// show why network-bound VMs want small intervals or Best Effort mode.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/cost"
	"repro/internal/websim"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	model := cost.Default()
	spec := workload.Web(workload.WebMedium)

	base, err := websim.Simulate(websim.DefaultParams())
	if err != nil {
		return err
	}
	fmt.Printf("baseline (no protection): %.0f req/s, %v avg latency\n\n",
		base.Throughput, base.AvgLatency.Round(time.Microsecond))

	fmt.Printf("%-10s %-22s %-22s\n", "", "Synchronous Safety", "Best Effort Safety")
	fmt.Printf("%-10s %10s %10s %10s %10s\n", "epoch", "latency", "req/s", "latency", "req/s")
	for _, e := range []time.Duration{20, 50, 100, 200} {
		epoch := e * time.Millisecond
		dirty := spec.DirtyPages(epoch)
		phases, _ := model.Pause(cost.Full, cost.Counts{
			TotalPages:  workload.PaperVMPages,
			DirtyPages:  dirty,
			BytesCopied: dirty * 4096,
		}, cost.PauseCtx{})
		pause := phases.Total()

		params := websim.DefaultParams()
		params.Epoch = epoch
		params.Pause = pause

		params.Buffered = true
		sync, err := websim.Simulate(params)
		if err != nil {
			return err
		}
		params.Buffered = false
		be, err := websim.Simulate(params)
		if err != nil {
			return err
		}
		fmt.Printf("%-10v %10v %10.0f %10v %10.0f\n", epoch,
			sync.AvgLatency.Round(time.Millisecond), sync.Throughput,
			be.AvgLatency.Round(time.Millisecond), be.Throughput)
	}
	fmt.Println("\nTakeaway (§5.4): choose small intervals or Best Effort for network-bound")
	fmt.Println("VMs; large intervals suit CPU-bound VMs where checkpoints dominate.")
	return nil
}
