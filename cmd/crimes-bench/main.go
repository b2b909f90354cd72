// Command crimes-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	crimes-bench            # run every experiment
//	crimes-bench -list      # list experiment IDs
//	crimes-bench -exp fig3  # run one experiment
//	crimes-bench -exp remus -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "crimes-bench:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	var (
		list        = flag.Bool("list", false, "list experiment IDs and exit")
		exp         = flag.String("exp", "", "run a single experiment by ID")
		csvDir      = flag.String("csv", "", "also write <id>.csv files for plottable figures into this directory")
		pauseJSON   = flag.String("pause-json", "", "write the parallel pause-path benchmark as JSON to this path and exit")
		fleetJSON   = flag.String("fleet-json", "", "write the fleet-scheduling benchmark as JSON to this path and exit")
		scanJSON    = flag.String("scan-json", "", "write the scan-path cache benchmark as JSON to this path and exit")
		cowJSON     = flag.String("cow-json", "", "write the CoW commit benchmark as JSON to this path and exit")
		remusJSON   = flag.String("remus-json", "", "write the delta-replication benchmark as JSON to this path and exit")
		clusterJSON = flag.String("cluster-json", "", "write the multi-host cluster benchmark as JSON to this path and exit")
		webJSON     = flag.String("web-json", "", "write the web-scale load benchmark as JSON to this path and exit")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (goroutines labeled vm, role=shipper|cow-copier|restore)")
		memProf     = flag.String("memprofile", "", "write an allocation profile of the run to this file on exit")
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

	if *list {
		for _, e := range experiments.All() {
			fmt.Println(e.ID)
		}
		return nil
	}
	if *pauseJSON != "" {
		out, err := experiments.PauseBreakdownJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*pauseJSON, out, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *pauseJSON, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *pauseJSON)
		return nil
	}
	if *fleetJSON != "" {
		out, err := experiments.FleetSweepJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*fleetJSON, out, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *fleetJSON, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *fleetJSON)
		return nil
	}
	if *scanJSON != "" {
		out, err := experiments.ScanSweepJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*scanJSON, out, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *scanJSON, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *scanJSON)
		return nil
	}
	if *cowJSON != "" {
		out, err := experiments.CoWSweepJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*cowJSON, out, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *cowJSON, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *cowJSON)
		return nil
	}
	if *remusJSON != "" {
		out, err := experiments.DeltaSweepJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*remusJSON, out, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *remusJSON, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *remusJSON)
		return nil
	}
	if *clusterJSON != "" {
		out, err := experiments.ClusterSweepJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*clusterJSON, out, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *clusterJSON, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *clusterJSON)
		return nil
	}
	if *webJSON != "" {
		out, err := experiments.WebSweepJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*webJSON, out, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *webJSON, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *webJSON)
		return nil
	}
	if *exp != "" {
		gen, err := experiments.ByID(*exp)
		if err != nil {
			return err
		}
		res, err := gen()
		if err != nil {
			return err
		}
		fmt.Println(res.Text)
		return writeCSV(*csvDir, res)
	}
	for _, e := range experiments.All() {
		res, err := e.Gen()
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(res.Text)
		if err := writeCSV(*csvDir, res); err != nil {
			return err
		}
	}
	return nil
}

func writeCSV(dir string, res *experiments.Result) error {
	if dir == "" || res.CSV == "" {
		return nil
	}
	path := filepath.Join(dir, res.ID+".csv")
	if err := os.WriteFile(path, []byte(res.CSV), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}
