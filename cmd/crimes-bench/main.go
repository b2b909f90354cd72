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
		list    = flag.Bool("list", false, "list experiment IDs and exit")
		exp     = flag.String("exp", "", "run a single experiment by ID")
		csvDir  = flag.String("csv", "", "also write <id>.csv files for plottable figures into this directory")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (goroutines labeled vm, role=shipper|cow-copier|restore)")
		memProf = flag.String("memprofile", "", "write an allocation profile of the run to this file on exit")
	)
	// One -<name>-json flag per benchmark artifact.
	for _, a := range experiments.Artifacts() {
		flag.String(a.Flag, "", "regenerate "+a.File+" as JSON at this path and exit")
	}
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
	for _, a := range experiments.Artifacts() {
		path := flag.Lookup(a.Flag).Value.String()
		if path == "" {
			continue
		}
		out, err := a.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
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
