// Command bench is the repository's wall-clock benchmark: six workloads
// run against the real epoch loop, every output checked, every metric
// printed by name with its unit. See README.md.
//
//	go run ./bench                      # all workloads, end-to-end metrics
//	go run ./bench -traced              # all workloads, per-layer metrics + bench/out/*.trace.jsonl
//	go run ./bench -workload vm1-scan-heavy -seed 7
//	go run ./bench -repeat 2            # run the set twice, fail if the sets disagree
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// options are one workload run's inputs.
type options struct {
	seed    int64
	seconds float64 // run length; 10 is the reference size
	traced  bool
	outDir  string // where the traced run writes <workload>.trace.jsonl
	// setups overrides the workload's set-up repeat count when positive
	// (the smoke test sets up once).
	setups int
}

// runWorkload runs one workload in this process.
func runWorkload(name string, opt options) (*result, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	w = w.sized(opt.seconds)
	if opt.setups > 0 {
		w.setups = opt.setups
	}
	var out *result
	if opt.traced {
		out, err = runTraced(w, opt)
	} else {
		out, err = runMeasured(w, opt.seed)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	out.set("failed_share", out.checks.share(), out.checks.attempted)
	out.keep(func(d metricDef) bool {
		if opt.traced {
			return !d.gated
		}
		return d.gated || d.user
	})
	return out, nil
}

// runMeasured dispatches the measured (untraced) run by workload kind.
func runMeasured(w workloadDef, seed int64) (*result, error) {
	switch w.kind {
	case kindFleet:
		return runFleet(w, seed, nil)
	case kindCluster:
		return runCluster(w, seed, nil)
	case kindIncident:
		return runIncident(w, seed, nil)
	default:
		return runSingle(w, seed, nil, nil)
	}
}

// line is the machine-readable result: the last line of standard output.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine builds the machine line. The untraced line carries exactly
// the gated end-to-end metrics and the traced line exactly every other
// catalogue entry; one that does not apply to the workload reads 0
// there (the human-readable listing omits it instead). With recorded
// set, the line carries exactly what the run recorded instead — the
// re-exec driver asks for that, so that -repeat can compare the exact
// counters the untraced contract line leaves out.
func resultLine(r *result, recorded bool) line {
	l := line{
		Correct: r.checks.failed == 0, Attempted: r.checks.attempted, Failed: r.checks.failed,
		Metrics: make(map[string]lineValue),
	}
	for _, d := range catalogue {
		s, ok := r.metrics[d.name]
		if recorded && !ok || !recorded && d.gated == r.traced {
			continue
		}
		l.Metrics[d.name] = lineValue{Value: s.value, Unit: d.unit}
	}
	return l
}

func main() {
	// Two Ps whatever the machine has: the CoW copier and the replication
	// shipper get a core, and nothing else depends on the core count.
	runtime.GOMAXPROCS(2)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload, in this process")
		seed     = fs.Int64("seed", 1, "seed for every generated input")
		seconds  = fs.Float64("seconds", 10, "run length; epoch counts scale with it (10 = reference size)")
		trace    = fs.Int("trace", 0, "1 = traced run (per-layer metrics), 0 = measured run")
		traced   = fs.Bool("traced", false, "same as -trace 1")
		jsonOnly = fs.Bool("json", false, "print only the machine-readable result lines")
		repeat   = fs.Int("repeat", 1, "run the whole set this many times and compare the sets")
		outDir   = fs.String("out", "bench/out", "directory for traced-run span files")
		recorded = fs.Bool("recorded", false, "with -workload: the result line carries every recorded metric, not the driver's fixed set")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *repeat < 1 || *trace < 0 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, traced: *traced || *trace == 1, outDir: *outDir}

	if *workload != "" {
		res, err := runWorkload(*workload, opt)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !*jsonOnly {
			res.render(stdout)
		}
		enc, err := json.Marshal(resultLine(res, *recorded))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", enc)
		if res.checks.failed > 0 {
			return 1
		}
		return 0
	}
	return runAll(opt, *repeat, *jsonOnly, stdout, stderr)
}

// runAll runs every workload, each in its own process so that heap
// state, GC pacing and peak RSS never leak from one to the next, and
// with -repeat compares the sets.
func runAll(opt options, repeat int, jsonOnly bool, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	sets := make([]map[string]line, repeat)
	for i := range sets {
		sets[i] = make(map[string]line)
		for _, w := range workloads {
			args := []string{
				"-recorded", "-workload", w.name,
				"-seed", strconv.FormatInt(opt.seed, 10),
				"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64),
				"-out", opt.outDir,
			}
			if opt.traced {
				args = append(args, "-trace", "1")
			}
			var buf bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = &buf
			cmd.Stderr = stderr
			runErr := cmd.Run()
			text := strings.TrimRight(buf.String(), "\n")
			human, last := "", text
			if j := strings.LastIndexByte(text, '\n'); j >= 0 {
				human, last = text[:j+1], text[j+1:]
			}
			var l line
			if err := json.Unmarshal([]byte(last), &l); err != nil {
				fmt.Fprintf(stderr, "bench: %s printed no result (%v)\n", w.name, runErr)
				status = 1
				continue
			}
			if jsonOnly {
				fmt.Fprintf(stdout, "{\"workload\":%q,\"result\":%s}\n", w.name, last)
			} else {
				io.WriteString(stdout, human)
			}
			if runErr != nil || !l.Correct {
				status = 1
			}
			sets[i][w.name] = l
		}
	}
	if repeat > 1 && !compareSets(sets, stdout) {
		status = 1
	}
	return status
}

// compareSets prints, for every gated or exact metric, the spread
// between the repeated sets (max over min, minus one) and reports
// whether every gated metric stayed within its bound and every exact
// counter repeated bit-for-bit.
func compareSets(sets []map[string]line, w io.Writer) bool {
	ok := true
	fmt.Fprintf(w, "== repeatability over %d sets\n", len(sets))
	for _, wl := range workloads {
		for _, d := range catalogue {
			if !d.gated && !d.exact {
				continue
			}
			var vals []float64
			for _, set := range sets {
				if v, in := set[wl.name].Metrics[d.name]; in {
					vals = append(vals, v.Value)
				}
			}
			if len(vals) < 2 {
				continue
			}
			lo, hi := vals[0], vals[0]
			for _, v := range vals[1:] {
				lo, hi = min(lo, v), max(hi, v)
			}
			spread := 0.0
			if lo != hi {
				spread = hi/lo - 1
				if lo <= 0 {
					spread = 1
				}
			}
			verdict := "ok"
			switch {
			case d.exact && lo != hi:
				verdict, ok = "DIFFERS (exact counter)", false
			case d.gated && spread > d.bound:
				verdict, ok = fmt.Sprintf("EXCEEDS bound %.2f", d.bound), false
			}
			fmt.Fprintf(w, "  %-20s %-44s spread %7.4f  %s\n", wl.name, d.name, spread, verdict)
		}
	}
	return ok
}
