// Webserver: the §5.4 trade-off for latency-sensitive guests. A web
// server runs under CRIMES at ten epoch intervals in both safety modes;
// the closed-loop client's normalized latency and throughput (Figure 7,
// the same sweep as `crimes-bench -exp fig7`) show why network-bound VMs
// want small intervals or Best Effort mode.
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
)

func main() {
	res, err := experiments.Fig7WebServer()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Text)
	fmt.Println("Takeaway (§5.4): choose small intervals or Best Effort for network-bound")
	fmt.Println("VMs; large intervals suit CPU-bound VMs where checkpoints dominate.")
}
