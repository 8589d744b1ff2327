// Command coefficientsim runs the paper's experiments (Figures 1-5) on the
// FlexRay simulator and prints the resulting tables.
//
// Usage:
//
//	coefficientsim -experiment fig1 [-quick] [-seed 1] [-format table|csv]
//	coefficientsim -experiment all -quick -parallel 8
//
// The -parallel flag sets the sweep worker count (0 = all cores); every
// experiment produces byte-identical tables at any parallelism degree.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"github.com/flexray-go/coefficient/internal/experiment"
	"github.com/flexray-go/coefficient/internal/metrics"
	"github.com/flexray-go/coefficient/internal/plot"
	"github.com/flexray-go/coefficient/internal/scenario"
)

func main() {
	// A SIGINT cancels the sweep at the next cell boundary instead of
	// killing the process mid-write: the experiments observe ctx, the
	// run returns through the normal error path, and every output file
	// is still flushed and closed by the writeFile helper.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "coefficientsim:", err)
		os.Exit(1)
	}
}

// allExperiments lists every experiment runOne knows, in the order
// `-experiment all` runs them.
var allExperiments = []string{"fig1", "fig2", "fig3", "fig4", "fig4a", "fig5", "ablation", "synthesis", "wcrt", "degradation", "timing"}

// options carries the parsed CLI configuration shared by the experiment
// dispatch.
type options struct {
	ctx       context.Context
	quick     bool
	seed      uint64
	scn       *scenario.Scenario
	drift     float64
	guardians string
	parallel  int
	replicas  int
}

func run(ctx context.Context, args []string) (retErr error) {
	fs := flag.NewFlagSet("coefficientsim", flag.ContinueOnError)
	var (
		exp      = fs.String("experiment", "all", "experiment to run: fig1, fig2, fig3, fig4, fig4a, fig5, ablation, synthesis, wcrt, degradation, timing or all")
		quick    = fs.Bool("quick", false, "shrink horizons/batches for a fast smoke run")
		seed     = fs.Uint64("seed", 1, "deterministic seed for arrivals and fault injection")
		scnArg   = fs.String("scenario", "", "fault-scenario JSON file for the degradation experiment (default: built-in BER step + blackout)")
		drift    = fs.Float64("drift", 100, "oscillator drift bound in ppm for the timing experiment")
		guards   = fs.String("guardians", "both", "bus-guardian variants for the timing experiment: both, on or off")
		parallel = fs.Int("parallel", 0, "sweep worker count: 0 = all cores, 1 = serial; output is identical for every value")
		replicas = fs.Int("replicas", 0, "Monte-Carlo replicas per fig5 point, each on an independent derived seed (0 = auto: 1 with -quick, 100 otherwise)")
		format   = fs.String("format", "table", "output format: table, csv or json")
		output   = fs.String("output", "", "write to this file instead of stdout")
		svgDir   = fs.String("svg", "", "also write an SVG chart per experiment into this directory")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProf  = fs.String("memprofile", "", "write an allocation profile taken at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "table" && *format != "csv" && *format != "json" {
		return fmt.Errorf("unknown format %q", *format)
	}
	if *drift <= 0 {
		return fmt.Errorf("-drift %g: must be positive", *drift)
	}
	if *replicas < 0 {
		return fmt.Errorf("-replicas %d: must be 0 (auto) or positive", *replicas)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: must be 0 (all cores) or positive", *parallel)
	}
	if *guards != "both" && *guards != "on" && *guards != "off" {
		return fmt.Errorf("unknown guardians %q (want both, on or off)", *guards)
	}
	// Every name is checked before anything runs, so a bad name late in
	// the list cannot leave a partial -output file behind.
	names := allExperiments
	if *exp != "all" {
		names = strings.Split(*exp, ",")
		for i, name := range names {
			names[i] = strings.TrimSpace(name)
			if !slices.Contains(allExperiments, names[i]) {
				return fmt.Errorf("unknown experiment %q", names[i])
			}
		}
	}
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	opts := options{
		ctx:       ctx,
		quick:     *quick,
		seed:      *seed,
		drift:     *drift,
		guardians: *guards,
		parallel:  *parallel,
		replicas:  *replicas,
	}
	if opts.replicas == 0 {
		// Quick smoke runs keep the single-seed point; full runs ship the
		// paper's miss-ratio curves with real confidence intervals, which
		// the batched replica engine makes affordable.
		if opts.quick {
			opts.replicas = 1
		} else {
			opts.replicas = 100
		}
	}
	if *scnArg != "" {
		s, err := scenario.Load(*scnArg)
		if err != nil {
			return err
		}
		opts.scn = s
	}

	emitAll := func(w io.Writer) error {
		for _, name := range names {
			tbl, chart, err := runOne(name, opts)
			if err != nil {
				return err
			}
			if err := emit(w, tbl, *format); err != nil {
				return err
			}
			fmt.Fprintln(w)
			if *svgDir != "" && chart != nil {
				if err := writeSVG(*svgDir, name, chart); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if *output != "" {
		// Close errors must surface: a full disk otherwise truncates the
		// results file silently.
		return writeFile(*output, emitAll)
	}
	return emitAll(os.Stdout)
}

// startProfiles begins CPU profiling and arranges for the allocation
// profile, returning a stop function that finishes both.  Every error —
// create, start, write, close — surfaces: a truncated profile silently
// misdirects an optimization session.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			if cerr := f.Close(); cerr != nil {
				return nil, fmt.Errorf("start cpu profile: %v (and close %s: %v)", err, cpuPath, cerr)
			}
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
		cpuFile = f
	}
	stop := func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("close %s: %w", cpuPath, err)
			}
		}
		if memPath != "" {
			// One forced GC so the allocation profile reflects live and
			// cumulative allocations up to exit, matching go test -memprofile.
			runtime.GC()
			err := writeFile(memPath, func(w io.Writer) error {
				return pprof.Lookup("allocs").WriteTo(w, 0)
			})
			if err != nil {
				return fmt.Errorf("write mem profile: %w", err)
			}
		}
		return nil
	}
	return stop, nil
}

// writeFile creates path, hands it to write, and propagates the Close
// error if write itself succeeded — the final flush of buffered data
// happens in Close, so ignoring it hides short writes on a full disk.
func writeFile(path string, write func(io.Writer) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close %s: %w", path, cerr)
		}
	}()
	return write(f)
}

func writeSVG(dir, name string, chart *plot.Chart) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, name+".svg"), chart.WriteSVG)
}

func runOne(name string, o options) (experiment.Table, *plot.Chart, error) {
	switch name {
	case "timing":
		rows, err := experiment.TimingFault(experiment.TimingFaultOptions{
			Seed: o.seed, Quick: o.quick, DriftPPM: o.drift, Guardians: o.guardians,
			Parallel: o.parallel, Ctx: o.ctx,
		})
		if err != nil {
			return experiment.Table{}, nil, err
		}
		return experiment.TimingFaultTable(rows), nil, nil
	case "degradation":
		rows, err := experiment.Degradation(experiment.DegradationOptions{
			Scenario: o.scn, Seed: o.seed, Quick: o.quick, Parallel: o.parallel, Ctx: o.ctx,
		})
		if err != nil {
			return experiment.Table{}, nil, err
		}
		return experiment.DegradationTable(rows), nil, nil
	case "fig1":
		rows, err := experiment.RunningTime(experiment.RunningTimeOptions{
			Scenario: experiment.BER7(), Seed: o.seed, Quick: o.quick, Parallel: o.parallel, Ctx: o.ctx,
		})
		if err != nil {
			return experiment.Table{}, nil, err
		}
		return experiment.RunningTimeTable("Figure 1: running time (BER-7)", rows),
			experiment.RunningTimeChart("Figure 1: running time (BER-7)", rows), nil
	case "fig2":
		rows, err := experiment.RunningTime(experiment.RunningTimeOptions{
			Scenario: experiment.BER9(), Seed: o.seed, Quick: o.quick, Parallel: o.parallel, Ctx: o.ctx,
		})
		if err != nil {
			return experiment.Table{}, nil, err
		}
		return experiment.RunningTimeTable("Figure 2: running time (BER-9)", rows),
			experiment.RunningTimeChart("Figure 2: running time (BER-9)", rows), nil
	case "fig3":
		rows, err := experiment.Utilization(experiment.UtilizationOptions{
			Seed: o.seed, Quick: o.quick, Parallel: o.parallel, Ctx: o.ctx,
		})
		if err != nil {
			return experiment.Table{}, nil, err
		}
		return experiment.UtilizationTable(rows), experiment.UtilizationChart(rows), nil
	case "fig4a":
		rows, err := experiment.FrameLatency(experiment.FrameLatencyOptions{
			Seed: o.seed, Quick: o.quick, Parallel: o.parallel, Ctx: o.ctx,
		})
		if err != nil {
			return experiment.Table{}, nil, err
		}
		return experiment.FrameLatencyTable(rows), experiment.FrameLatencyChart(rows), nil
	case "fig4":
		rows, err := experiment.Latency(experiment.LatencyOptions{
			Seed: o.seed, Quick: o.quick, Parallel: o.parallel, Ctx: o.ctx,
		})
		if err != nil {
			return experiment.Table{}, nil, err
		}
		return experiment.LatencyTable(rows), experiment.LatencyChart(rows, "BBW", metrics.Dynamic), nil
	case "wcrt":
		rows, err := experiment.WCRT(experiment.WCRTOptions{Seed: o.seed})
		if err != nil {
			return experiment.Table{}, nil, err
		}
		return experiment.WCRTTable(rows), nil, nil
	case "synthesis":
		rows, err := experiment.Synthesis(experiment.SynthesisOptions{Seed: o.seed})
		if err != nil {
			return experiment.Table{}, nil, err
		}
		return experiment.SynthesisTable(rows), nil, nil
	case "ablation":
		rows, err := experiment.Ablations(experiment.AblationOptions{
			Seed: o.seed, Quick: o.quick, Parallel: o.parallel, Ctx: o.ctx,
		})
		if err != nil {
			return experiment.Table{}, nil, err
		}
		return experiment.AblationTable(rows), nil, nil
	case "fig5":
		rows, err := experiment.MissRatio(experiment.MissOptions{
			Seed: o.seed, Quick: o.quick, Replicas: o.replicas, Parallel: o.parallel, Ctx: o.ctx,
		})
		if err != nil {
			return experiment.Table{}, nil, err
		}
		return experiment.MissTable(rows), experiment.MissChart(rows), nil
	default:
		return experiment.Table{}, nil, fmt.Errorf("unknown experiment %q", name)
	}
}

func emit(w io.Writer, tbl experiment.Table, format string) error {
	switch format {
	case "table":
		_, err := io.WriteString(w, tbl.String())
		return err
	case "json":
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(tableJSON(tbl))
	default: // csv
		cw := csv.NewWriter(w)
		if err := cw.Write(tbl.Header); err != nil {
			return err
		}
		for _, row := range tbl.Rows {
			if err := cw.Write(row); err != nil {
				return err
			}
		}
		// Flush pushes the buffered rows to the writer; Error surfaces
		// any write failure Flush swallowed.
		cw.Flush()
		return cw.Error()
	}
}

// tableJSON renders a table as a list of header-keyed objects.
func tableJSON(tbl experiment.Table) map[string]any {
	rows := make([]map[string]string, 0, len(tbl.Rows))
	for _, r := range tbl.Rows {
		obj := make(map[string]string, len(tbl.Header))
		for i, h := range tbl.Header {
			if i < len(r) {
				obj[h] = r[i]
			}
		}
		rows = append(rows, obj)
	}
	return map[string]any{"title": tbl.Title, "rows": rows}
}
