package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts a CPU profile into cpuPath and arranges for a
// heap profile into memPath; either path may be empty. The returned stop
// function ends the CPU profile and writes the heap profile, and must be
// called once when the run is over. The long-lived goroutines of the
// replication path carry pprof labels (vm, role=shipper|restore), so `go tool pprof -tagfocus role=shipper` splits a profile
// by pipeline stage.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			_ = cpu.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		mem, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC() // materialize up-to-date allocation statistics
		if err := pprof.Lookup("allocs").WriteTo(mem, 0); err != nil {
			_ = mem.Close()
			return fmt.Errorf("memprofile: %w", err)
		}
		if err := mem.Close(); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		return nil
	}, nil
}
