package crimes_test

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/guestos"
	"repro/internal/websim"

	crimes "repro"
)

// ExampleLaunch protects a guest and detects a heap overflow at the
// epoch boundary with zero external impact.
func ExampleLaunch() {
	sys, err := crimes.Launch(crimes.Options{
		Config: crimes.Config{
			EpochInterval:    50 * time.Millisecond,
			ReplayOnIncident: true,
		},
	})
	if err != nil {
		fmt.Println("launch:", err)
		return
	}
	defer sys.Close()

	var pid uint32
	var buf uint64
	_, _ = sys.RunEpoch(func(g *guestos.Guest) error {
		pid, err = g.StartProcess("victim", 0, 8)
		if err != nil {
			return err
		}
		buf, err = g.Malloc(pid, 64)
		return err
	})
	res, err := sys.RunEpoch(func(g *guestos.Guest) error {
		if err := g.WriteUser(pid, buf, bytes.Repeat([]byte{'A'}, 80)); err != nil {
			return err
		}
		return g.SendPacket(pid, [4]byte{203, 0, 113, 7}, 4444, []byte("stolen"))
	})
	if err != nil {
		fmt.Println("epoch:", err)
		return
	}
	fmt.Println("detected:", res.Findings[0].Kind)
	fmt.Println("outputs discarded:", sys.Controller.Buffer().Discarded())
	fmt.Println("pinpointed op kind:", res.Incident.Pinpoint.Op.Kind)
	// Output:
	// detected: buffer-overflow
	// outputs discarded: 1
	// pinpointed op kind: user-write
}

// ExampleLaunch_malware shows the unaided Windows malware case study.
func ExampleLaunch_malware() {
	sys, err := crimes.Launch(crimes.Options{Windows: true})
	if err != nil {
		fmt.Println("launch:", err)
		return
	}
	defer sys.Close()
	res, err := sys.RunEpoch(func(g *guestos.Guest) error {
		_, err := g.StartProcess("reg_read.exe", 500, 4)
		return err
	})
	if err != nil {
		fmt.Println("epoch:", err)
		return
	}
	fmt.Println(res.Findings[0].Description)
	// Output:
	// blacklisted process "reg_read.exe" running as pid 1
}

// Example_webBaseline reproduces the paper's unprotected web baseline: ten
// seconds of the wrk client against an unprotected server.
func Example_webBaseline() {
	g, err := websim.NewGen(websim.GenParams{Classes: []websim.Class{websim.WrkClient}})
	if err != nil {
		fmt.Println("simulate:", err)
		return
	}
	g.Run(10 * time.Second)
	fmt.Printf("throughput %.0f req/s\n", g.Snapshot().Throughput)
	// Output:
	// throughput 17094 req/s
}
