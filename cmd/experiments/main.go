// Command experiments regenerates every table and figure of the paper's
// evaluation against the simulated backend and writes the Markdown report
// (the content of EXPERIMENTS.md).
//
// Usage:
//
//	experiments -preamble -days 1 -seed 42 -out EXPERIMENTS.md
//	experiments -hours 8            # quick pass, no preamble
//	experiments -engine additive -hours 12    # audit one pricing regime
//	experiments -compare-engines -hours 12    # audit all regimes side by side
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/surge"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one invocation and returns the exit code: 0 on success, 1
// when the report cannot be written, 2 for a command line it rejects.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		days     = fs.Int("days", 1, "measurement days per city")
		hours    = fs.Int("hours", 0, "override: measurement hours per city")
		seed     = fs.Int64("seed", 42, "simulation seed")
		out      = fs.String("out", "", "output file (default stdout)")
		preamble = fs.Bool("preamble", false, "prepend the EXPERIMENTS.md reading guide")
		workers  = fs.Int("sim-workers", 0, "parallel tick workers per city simulation (0 = GOMAXPROCS; results are identical for any value)")
		scale    = fs.Float64("fleet-scale", 1, "multiply each city's driver and request targets (load testing; 1 = calibrated size)")
		opencab  = fs.Int("openstreetcab", 0, "run only the two-service price-comparison scenario for this many rush-hour hours (shared road network)")
		engine   = fs.String("engine", "", "audit one pricing engine with the 2015 methodology ("+strings.Join(surge.EngineNames(), ", ")+")")
		compare  = fs.Bool("compare-engines", false, "audit every pricing engine and print the side-by-side distinguishability report")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := surge.CheckEngine(*engine); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	var f *os.File // the -out file, nil when the report goes to stdout
	dst := stdout
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		dst = f
	}
	w := bufio.NewWriter(dst)
	report(w, *opencab, *compare, *engine, *preamble, experiments.Options{
		Seed:       *seed,
		Days:       *days,
		Hours:      *hours,
		Jitter:     true,
		Workers:    *workers,
		FleetScale: *scale,
	})
	err := w.Flush()
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "experiments: report truncated:", err)
		return 1
	}
	return 0
}

// report writes the one report the flags select.
func report(w io.Writer, opencab int, compare bool, engine string, preamble bool, opts experiments.Options) {
	switch {
	case opencab > 0:
		cab := experiments.OpenStreetCabOptions{Seed: opts.Seed, Hours: opencab, Workers: opts.Workers}
		experiments.WriteOpenStreetCab(w, cab, experiments.RunOpenStreetCab(cab))
	case compare:
		experiments.WriteEngineComparison(w, opts, experiments.RunEngineComparison(sim.Manhattan(), opts))
	case engine != "":
		experiments.WriteEngineAudit(w, experiments.AuditEngine(sim.Manhattan(), engine, opts))
	default:
		if preamble {
			experiments.WritePreamble(w)
		}
		experiments.Report(w, opts)
	}
}
