// Command bench is the repository's benchmark: four workloads that
// drive the simulator, the corpus and the daemon through the entry
// points users run, each in its own child process, reporting end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
// README.md describes the workloads, the metrics and how to compare two
// commits; run.sh builds and runs it from the repository root:
//
//	bash bench/run.sh -workload fig5-mc -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload all -seed 1
//	bash bench/run.sh -workload makespan -repeat 5
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  The exit code is 0 only when
// every output check passed.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line flags.
type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	out       string
	repeat    int
	child     bool
	spawnedAt int64
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", `workload to run: one of `+strings.Join(workloadNames, ", ")+`, or "all"`)
	fs.Uint64Var(&o.seed, "seed", pinnedSeed, "input seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 measures per-layer metrics in a traced window instead of end-to-end ones")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "trace"), "directory a traced run writes <workload>/spans.jsonl and layers.json into")
	fs.IntVar(&o.repeat, "repeat", 0, "stability mode: run each workload this many times, on seeds seed, seed+1, …, and print each metric's median and spread")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	fs.Int64Var(&o.spawnedAt, "spawned-at", 0, "internal: wall-clock time (Unix ns) at which the parent started this child")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.workload == "":
		return o, errors.New("-workload is required")
	case o.workload != "all" && !known(o.workload):
		return o, fmt.Errorf("unknown workload %q (want one of %s, or all)", o.workload, strings.Join(workloadNames, ", "))
	case o.seconds < 1:
		return o, fmt.Errorf("-seconds %d: must be at least 1", o.seconds)
	case o.trace != 0 && o.trace != 1:
		return o, fmt.Errorf("-trace %d: must be 0 or 1", o.trace)
	case o.repeat < 0:
		return o, fmt.Errorf("-repeat %d: must not be negative", o.repeat)
	}
	return o, nil
}

func known(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.child {
		return runChild(o, stdout, stderr)
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	if o.repeat > 0 {
		return repeat(o, names, stdout, stderr)
	}
	final := report{Correct: true, Metrics: make(map[string]metricValue)}
	for _, name := range names {
		rep, err := spawn(o, name, o.seed, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		printReport(stdout, name, rep)
		final.Correct = final.Correct && rep.Correct
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		for k, v := range rep.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// report is the benchmark's result line, and a child's.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Notes are human-readable details a child passes up; the final line
	// omits them.
	Notes []string `json:"notes,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// childTimeout bounds one child beyond its measured window: set-up,
// checks and teardown take seconds, never minutes.
const childTimeout = 150 * time.Second

// spawn runs one workload in a child process and returns its report.
func spawn(o options, name string, seed uint64, stderr io.Writer) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(o.seconds)*time.Second+childTimeout)
	defer cancel()
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, "-child",
		"-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(o.trace),
		"-out", o.out, "-spawned-at", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		if runErr != nil {
			return report{}, fmt.Errorf("child failed: %w", runErr)
		}
		return report{}, fmt.Errorf("child printed no report: %w", err)
	}
	return rep, nil
}

// printReport writes a workload's metrics as a readable table.
func printReport(w io.Writer, name string, rep report) {
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d\n", name, rep.Correct, rep.Attempted, rep.Failed)
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if v, ok := rep.Metrics[def.Name]; ok {
			fmt.Fprintf(w, "   %-36s %16.6g %s\n", def.Name, v.Value, v.Unit)
		}
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "   # %s\n", n)
	}
}

// runChild measures one workload in this process and prints its report
// as the last line of stdout.
func runChild(o options, stdout, stderr io.Writer) int {
	var startLag time.Duration
	if o.spawnedAt > 0 {
		startLag = time.Since(time.Unix(0, o.spawnedAt))
	}
	rep, err := measure(o, startLag)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", o.workload, err)
		rep.Correct = false
		rep.Notes = append(rep.Notes, "error: "+err.Error())
	}
	if rep.Metrics == nil {
		rep.Metrics = make(map[string]metricValue)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// measure sets the workload up setupRounds times, runs its window
// (untraced, or untraced then traced) and checks its outputs.
func measure(o options, startLag time.Duration) (rep report, err error) {
	rep.Metrics = make(map[string]metricValue)
	w, err := newWorkload(o.workload, o.seed, o.trace == 1)
	if err != nil {
		return rep, err
	}
	defer func() {
		if terr := w.tearDown(); err == nil && terr != nil {
			err = fmt.Errorf("teardown: %w", terr)
		}
	}()
	rounds := make([]float64, setupRounds)
	for i := range rounds {
		if i > 0 {
			if err := w.tearDown(); err != nil {
				return rep, fmt.Errorf("set-up round %d teardown: %w", i, err)
			}
		}
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return rep, fmt.Errorf("set-up: %w", err)
		}
		rounds[i] = time.Since(t0).Seconds()
	}
	d := time.Duration(o.seconds) * time.Second
	var (
		res, plain windowResult
		tp         *probes
		alloc      uint64
	)
	if o.trace == 0 {
		if res, alloc, err = timedWindow(w, d, nil); err != nil {
			return rep, err
		}
		// The peak resident set up to the end of the window, before the
		// checks allocate.  Linux reports ru_maxrss in KiB.
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return rep, err
		}
		rep.Metrics["max_rss_mb"] = metricValue{float64(ru.Maxrss) / 1024, "MiB"}
	} else {
		// The traced window repeats the untraced one's first requests, so
		// their throughputs compare like for like and the checks compare
		// their outputs.
		if plain, _, err = timedWindow(w, d/3, nil); err != nil {
			return rep, err
		}
		tp = &probes{}
		if res, alloc, err = timedWindow(w, d-d/3, tp); err != nil {
			return rep, err
		}
	}
	rep.Attempted = res.attempted + plain.attempted
	rep.Failed = res.failed + plain.failed
	rep.Correct = rep.Failed == 0
	for _, e := range []string{plain.firstErr, res.firstErr} {
		if e != "" {
			rep.Notes = append(rep.Notes, "failure: "+e)
		}
	}
	if err := w.check(tp); err != nil {
		rep.Correct = false
		rep.Notes = append(rep.Notes, "check failed: "+err.Error())
	}
	if tp == nil {
		notes, err := endToEndMetrics(rep.Metrics, res, alloc, startLag.Seconds()+median(rounds))
		rep.Notes = append(rep.Notes, notes...)
		if err != nil {
			return rep, err
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf("setup_s: %.1f ms process start + median of set-up rounds %s",
			ms(startLag), fmtMs(rounds)))
	} else {
		layers := make(map[string]float64, len(perLayer))
		for _, def := range perLayer {
			layers[def.Name] = 0
		}
		simLayers(tp, alloc, layers)
		w.layers(tp, res, layers)
		layers["trace_overhead"] = overhead(plain, res)
		for _, def := range perLayer {
			rep.Metrics[def.Name] = metricValue{layers[def.Name], def.Unit}
		}
		if err := writeTrace(filepath.Join(o.out, o.workload), tp, layers); err != nil {
			return rep, fmt.Errorf("writing the trace: %w", err)
		}
	}
	return rep, nil
}

func fmtMs(secs []float64) string {
	parts := make([]string, len(secs))
	for i, s := range secs {
		parts[i] = fmt.Sprintf("%.1f", 1e3*s)
	}
	return "[" + strings.Join(parts, " ") + "] ms"
}

// timedWindow runs one window and measures its allocation volume.  The
// window starts on a collected heap, so garbage from set-up or an earlier
// window does not set when its collections run.
func timedWindow(w harness, d time.Duration, tp *probes) (windowResult, uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := w.window(d, tp)
	runtime.ReadMemStats(&after)
	return res, after.TotalAlloc - before.TotalAlloc, err
}

// overhead is the traced window's wall time over the untraced one's for
// the same work: the requests both windows completed when they replay
// one sequence, else the inverse ratio of their throughputs.
func overhead(plain, traced windowResult) float64 {
	if plain.sequential && traced.sequential {
		n := min(len(plain.latMs), len(traced.latMs))
		return sum(traced.latMs[:n]) / sum(plain.latMs[:n])
	}
	thr := func(w windowResult) float64 { return float64(w.thrCycles) / w.thrWall.Seconds() }
	return thr(plain) / thr(traced)
}

// endToEndMetrics fills the untraced run's metrics (all but max_rss_mb,
// which measure reads) and returns notes on how they were read.
// A window without a completed request is an error: a run must report
// every metric.
func endToEndMetrics(m map[string]metricValue, w windowResult, alloc uint64, setup float64) ([]string, error) {
	set := func(name string, v float64) {
		for _, def := range endToEnd {
			if def.Name == name {
				m[name] = metricValue{v, def.Unit}
			}
		}
	}
	set("setup_s", setup)
	if w.thrWall > 0 {
		set("sim_cycles_per_s", float64(w.thrCycles)/w.thrWall.Seconds())
		set("jobs_per_s", float64(w.thrJobs)/w.thrWall.Seconds())
	}
	if w.cycles > 0 {
		set("alloc_bytes_per_cycle", float64(alloc)/float64(w.cycles))
	}
	notes := []string{fmt.Sprintf("%d requests in %.2fs, throughput over %.2fs", w.attempted, w.wall.Seconds(), w.thrWall.Seconds())}
	if len(w.latMs) == 0 {
		return notes, errors.New("no request completed, so there is no latency")
	}
	// The median, and as the tail the highest percentile up to p90 that
	// has ten samples beyond it, but never below the median: a run of a
	// few long requests (fig5-mc) has no tail to read.
	p50 := median(w.latMs)
	set("p50_ms", p50)
	tail, used, ok := percentile(w.latMs, 90)
	if !ok || tail < p50 {
		tail, used = p50, 50
	}
	set("p90_ms", tail)
	notes = append(notes, fmt.Sprintf("%d latency samples; p90_ms is their p%.1f", len(w.latMs), used))
	return notes, nil
}
