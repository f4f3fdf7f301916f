// Command intertubes reproduces the paper from the command line. Bare
// intertubes builds the US long-haul fiber map (§2) and reports its
// structure; five subcommands run the later analyses and the what-if
// engine:
//
//	intertubes [-all] [-table1] [-step3] [-fig4] [-export DIR] [-dataset FILE]
//	intertubes riskreport [-probes N] [-fig6] [-fig7] [-fig8] [-fig9]
//	                      [-table2] [-table3] [-table4] [-capacity]
//	intertubes mitigate [-k N] [-fig10] [-table5] [-fig11] [-fig12]
//	intertubes resilience [-k N] [-disaster lat,lon,radiusKm]
//	intertubes tracegen [-n N] [-samples N] [-text]
//	intertubes whatif -preset NAME | -file FILE [-json] [-trace FILE]
//	intertubes whatif -list-presets
//	intertubes whatif -grid KM [-grid-radii 100,250] [-grid-format grid|geojson] [-grid-out FILE]
//
// Every command also takes -seed N (default 42; the output is
// deterministic in it), -workers N (0 = all CPUs; the output is
// identical at any value), -log-level and -v for structured logs on
// stderr, and -timings, which prints the per-stage build report after
// the artifacts. Each command's file documents its selection flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"intertubes"
	"intertubes/internal/obs"
)

func main() {
	os.Exit(exitCode(run(os.Args[1:], os.Stdout), os.Stderr))
}

// exitCode maps run's error to the process exit status: 0 on success
// and on -h (the flag set has already printed the usage), otherwise
// the error on stderr and 1.
func exitCode(err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	fmt.Fprintln(stderr, "intertubes:", err)
	return 1
}

// A command declares its own flags on fs and returns its body, which
// runs once the flags are parsed; opts carries the shared -seed and
// -workers.
type command func(fs *flag.FlagSet) func(opts intertubes.Options, out io.Writer) error

// subcommands are selected by the first argument; without one, run
// executes mapCmd.
var subcommands = map[string]command{
	"riskreport": riskreportCmd,
	"mitigate":   mitigateCmd,
	"resilience": resilienceCmd,
	"tracegen":   tracegenCmd,
	"whatif":     whatifCmd,
}

// run declares the shared flags, parses args, configures logging, runs
// the selected command and, on -timings, prints the build report.
func run(args []string, out io.Writer) error {
	name, cmd := "intertubes", command(mapCmd)
	usage := "usage: intertubes [riskreport|mitigate|resilience|tracegen|whatif] [flags]"
	if len(args) > 0 {
		if sub, ok := subcommands[args[0]]; ok {
			name, cmd, args = "intertubes "+args[0], sub, args[1:]
			usage = "usage: " + name + " [flags]"
		}
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), usage)
		fs.PrintDefaults()
	}
	var (
		seed     = fs.Int64("seed", 42, "study seed (deterministic)")
		workers  = fs.Int("workers", 0, "worker pool for the analysis stages (0 = all CPUs; results identical)")
		logLevel = fs.String("log-level", "info", "log level: debug, info, warn, error")
		verbose  = fs.Bool("v", false, "shorthand for -log-level debug")
		timings  = fs.Bool("timings", false, "print the per-stage build report after the artifacts")
	)
	body := cmd(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := obs.ConfigureLogging(*verbose, *logLevel); err != nil {
		return err
	}
	if err := body(intertubes.Options{Seed: *seed, Workers: *workers}, out); err != nil {
		return err
	}
	if *timings {
		fmt.Fprint(out, obs.Report())
	}
	return nil
}

// atLeast rejects a value of the named integer flag below lo.
func atLeast(name string, v, lo int) error {
	if v < lo {
		return fmt.Errorf("-%s must be >= %d (got %d)", name, lo, v)
	}
	return nil
}

// mapCmd is bare intertubes: the §2 map and its structure — Table 1,
// the Figure 1 summary, the Figure 4 co-location analysis, GeoJSON
// exports of the map and the road/rail/pipeline layers (Figures 1-3 as
// data), and the text dataset. With no selection flags it prints the
// Figure 1 summary.
func mapCmd(fs *flag.FlagSet) func(intertubes.Options, io.Writer) error {
	var (
		all     = fs.Bool("all", false, "render every table and figure of the paper")
		table1  = fs.Bool("table1", false, "render Table 1 (per-ISP nodes and links)")
		step3   = fs.Bool("step3", false, "render the step-3 POP-only additions")
		fig4    = fs.Bool("fig4", false, "render Figure 4 (transportation co-location)")
		export  = fs.String("export", "", "write GeoJSON layers into this directory")
		dataset = fs.String("dataset", "", "write the map dataset (text format) to this file")
	)
	return func(opts intertubes.Options, out io.Writer) error {
		study := intertubes.NewStudy(opts)
		switch {
		case *all:
			fmt.Fprintln(out, study.RenderAll())
		default:
			printed := false
			if *table1 {
				fmt.Fprintln(out, study.RenderTable1())
				printed = true
			}
			if *step3 {
				fmt.Fprintln(out, study.RenderStep3())
				printed = true
			}
			if *fig4 {
				fmt.Fprintln(out, study.RenderFigure4())
				printed = true
			}
			if !printed {
				fmt.Fprintln(out, study.RenderFigure1())
			}
		}
		if *export != "" {
			if err := study.ExportGeoJSON(*export); err != nil {
				return fmt.Errorf("export: %w", err)
			}
			fmt.Fprintf(out, "wrote GeoJSON layers to %s\n", *export)
		}
		if *dataset != "" {
			if err := study.ExportDataset(*dataset); err != nil {
				return fmt.Errorf("dataset: %w", err)
			}
			fmt.Fprintf(out, "wrote map dataset to %s\n", *dataset)
		}
		return nil
	}
}
