// Command collectsim regenerates the paper's evaluation figures and tables
// from the analytical model and the discrete-event simulator.
//
// Usage:
//
//	collectsim -experiment fig3 [-n 300] [-horizon 40] [-warmup 15] [-seed 42] [-csv]
//	collectsim -experiment all
//
// -experiment takes any experiment's name or its EXPERIMENTS.md label
// (t1, a7, ...), or all; -h lists them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"p2pcollect"
	"p2pcollect/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "collectsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("collectsim", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "experiment to run: "+experiments.Names()+", all")
		n          = fs.Int("n", 0, "simulated peer population (0 = default)")
		horizon    = fs.Float64("horizon", 0, "simulated duration per run (0 = default)")
		warmup     = fs.Float64("warmup", 0, "measurement warmup per run (0 = default)")
		seed       = fs.Int64("seed", 0, "random seed (0 = default)")
		csv        = fs.Bool("csv", false, "emit CSV instead of an aligned table")
		chart      = fs.Bool("chart", false, "draw an ASCII chart after the table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Wall-clock cost depends heavily on which GF(2^8) kernel the build
	// selected (results never do), so say which one is running.
	fmt.Fprintf(os.Stderr, "collectsim: gf256 kernel %q\n", p2pcollect.CodingKernel())
	opt := experiments.Options{N: *n, Horizon: *horizon, Warmup: *warmup, Seed: *seed}
	if *experiment == "all" {
		if *csv {
			return fmt.Errorf("-csv is only supported for single experiments")
		}
		return experiments.All(opt, out)
	}
	gen, ok := experiments.ByName(*experiment)
	if !ok {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	tbl, err := gen(opt)
	if err != nil {
		return err
	}
	if *csv {
		_, err = fmt.Fprint(out, tbl.RenderCSV())
	} else {
		_, err = fmt.Fprint(out, tbl.Render())
	}
	if err == nil && *chart {
		_, err = fmt.Fprint(out, "\n"+tbl.RenderChart())
	}
	return err
}
