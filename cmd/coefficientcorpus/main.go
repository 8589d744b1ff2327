// Command coefficientcorpus generates the scenario corpus, runs it
// differentially under CoEfficient, FSPEC and adaptive CoEfficient,
// diffs the outcomes against the golden store, and shrinks failing
// scenarios into committed regression cases.
//
// Usage:
//
//	coefficientcorpus generate -seed 1 -count 200 -quick -out cases.json
//	coefficientcorpus run -seed 1 -count 200 -quick -verify-parallel 8
//	coefficientcorpus diff -seed 1 -count 200 -quick -golden results/corpus/golden-quick.json [-update]
//	coefficientcorpus minimize -case failing.json -invariant accounting -out minimal.json
//
// Exit codes: 0 on success, 1 on invariant violations or golden diffs,
// 2 on usage or execution errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"github.com/flexray-go/coefficient/internal/corpus"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	code, err := run(ctx, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "coefficientcorpus:", err)
	}
	os.Exit(code)
}

func run(ctx context.Context, args []string) (int, error) {
	if len(args) == 0 {
		return 2, fmt.Errorf("usage: coefficientcorpus generate|run|diff|minimize [flags]")
	}
	switch args[0] {
	case "generate":
		return runGenerate(args[1:])
	case "run":
		return runRun(ctx, args[1:])
	case "diff":
		return runDiff(ctx, args[1:])
	case "minimize":
		return runMinimize(ctx, args[1:])
	default:
		return 2, fmt.Errorf("unknown subcommand %q (want generate, run, diff or minimize)", args[0])
	}
}

// genFlags registers the shared generation flags.
func genFlags(fs *flag.FlagSet) (*uint64, *int, *bool) {
	seed := fs.Uint64("seed", 1, "corpus seed: same seed and count give byte-identical cases")
	count := fs.Int("count", 200, "number of cases to generate")
	quick := fs.Bool("quick", false, "80 ms horizons instead of 300 ms, for CI-sized sweeps")
	return seed, count, quick
}

func parse(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(os.Stderr)
	return fs.Parse(args)
}

// checkParallel rejects a negative -parallel in coefficientsim's words.
func checkParallel(n int) error {
	if n < 0 {
		return fmt.Errorf("-parallel %d: must be 0 (all cores) or positive", n)
	}
	return nil
}

func runGenerate(args []string) (int, error) {
	fs := flag.NewFlagSet("coefficientcorpus generate", flag.ContinueOnError)
	seed, count, quick := genFlags(fs)
	out := fs.String("out", "", "write the case list to this file instead of stdout")
	if err := parse(fs, args); err != nil {
		return 2, nil
	}
	cases, err := corpus.Generate(corpus.GenOptions{Seed: *seed, Count: *count, Quick: *quick})
	if err != nil {
		return 2, err
	}
	emit := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(cases)
	}
	if *out != "" {
		if err := writeFile(*out, emit); err != nil {
			return 2, err
		}
		fmt.Printf("generated %d cases (seed %d, quick %v) -> %s\n", len(cases), *seed, *quick, *out)
		return 0, nil
	}
	if err := emit(os.Stdout); err != nil {
		return 2, err
	}
	return 0, nil
}

func runRun(ctx context.Context, args []string) (int, error) {
	fs := flag.NewFlagSet("coefficientcorpus run", flag.ContinueOnError)
	seed, count, quick := genFlags(fs)
	parallel := fs.Int("parallel", 0, "worker count: 0 = all cores, 1 = serial; outcomes are identical for every value")
	verify := fs.Int("verify-parallel", 0, "also run serially and fail unless outcomes are byte-identical at this worker count")
	out := fs.String("out", "", "write the result set to this file")
	if err := parse(fs, args); err != nil {
		return 2, nil
	}
	if err := checkParallel(*parallel); err != nil {
		return 2, err
	}
	if *verify < 0 {
		return 2, fmt.Errorf("-verify-parallel %d: must be 0 (off) or positive", *verify)
	}
	cases, err := corpus.Generate(corpus.GenOptions{Seed: *seed, Count: *count, Quick: *quick})
	if err != nil {
		return 2, err
	}
	if *verify > 0 {
		if err := corpus.VerifyParallel(cases, *verify, ctx); err != nil {
			return 1, err
		}
		fmt.Printf("parallel-identity: %d cases byte-identical at 1 and %d workers\n", len(cases), *verify)
	}
	results, err := corpus.Run(cases, corpus.RunOptions{Parallel: *parallel, Ctx: ctx})
	if err != nil {
		return 2, err
	}
	if *out != "" {
		store := corpus.NewStore(corpus.GenOptions{Seed: *seed, Count: *count, Quick: *quick}, results)
		if err := store.Save(*out); err != nil {
			return 2, err
		}
	}
	violations := corpus.CheckAll(cases, results)
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "VIOLATION:", v)
	}
	if len(violations) > 0 {
		return 1, fmt.Errorf("%d invariant violations across %d cases", len(violations), len(cases))
	}
	fmt.Printf("corpus green: %d cases x %d schedulers, all invariants hold\n",
		len(cases), len(corpus.Schedulers))
	return 0, nil
}

func runDiff(ctx context.Context, args []string) (int, error) {
	fs := flag.NewFlagSet("coefficientcorpus diff", flag.ContinueOnError)
	seed, count, quick := genFlags(fs)
	parallel := fs.Int("parallel", 0, "worker count")
	golden := fs.String("golden", "results/corpus/golden-quick.json", "golden store to diff against")
	update := fs.Bool("update", false, "rewrite the golden store from this run instead of diffing")
	if err := parse(fs, args); err != nil {
		return 2, nil
	}
	if err := checkParallel(*parallel); err != nil {
		return 2, err
	}
	opts := corpus.GenOptions{Seed: *seed, Count: *count, Quick: *quick}
	cases, err := corpus.Generate(opts)
	if err != nil {
		return 2, err
	}
	results, err := corpus.Run(cases, corpus.RunOptions{Parallel: *parallel, Ctx: ctx})
	if err != nil {
		return 2, err
	}
	fresh := corpus.NewStore(opts, results)
	if *update {
		if err := fresh.Save(*golden); err != nil {
			return 2, err
		}
		fmt.Printf("golden store updated: %s (%d cases)\n", *golden, len(results))
		return 0, nil
	}
	stored, err := corpus.LoadStore(*golden)
	if err != nil {
		return 2, fmt.Errorf("%w (run with -update to create it)", err)
	}
	lines, err := stored.Diff(fresh)
	if err != nil {
		return 2, err
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	if len(lines) > 0 {
		return 1, fmt.Errorf("%d differences against %s", len(lines), *golden)
	}
	fmt.Printf("golden store matches: %d cases identical\n", len(results))
	return 0, nil
}

func runMinimize(ctx context.Context, args []string) (int, error) {
	fs := flag.NewFlagSet("coefficientcorpus minimize", flag.ContinueOnError)
	caseFile := fs.String("case", "", "JSON file holding the failing case (single case or a list; the first failing case is used)")
	invariant := fs.String("invariant", "", "invariant ID to preserve while shrinking (empty = any violation)")
	parallel := fs.Int("parallel", 0, "worker count")
	out := fs.String("out", "", "write the minimized case to this file instead of stdout")
	if err := parse(fs, args); err != nil {
		return 2, nil
	}
	if err := checkParallel(*parallel); err != nil {
		return 2, err
	}
	if *caseFile == "" {
		return 2, fmt.Errorf("minimize: -case is required")
	}
	cases, err := loadCases(*caseFile)
	if err != nil {
		return 2, err
	}
	ropts := corpus.RunOptions{Parallel: *parallel, Ctx: ctx}
	for _, c := range cases {
		min, err := corpus.Minimize(c, *invariant, ropts)
		if err != nil {
			continue // this case does not fail; try the next
		}
		data, err := min.Canonical()
		if err != nil {
			return 2, err
		}
		if *out != "" {
			if err := writeFile(*out, func(w io.Writer) error {
				_, werr := w.Write(append(data, '\n'))
				return werr
			}); err != nil {
				return 2, err
			}
			fmt.Printf("minimized %s -> %s\n", c.Name, *out)
			return 0, nil
		}
		fmt.Println(string(data))
		return 0, nil
	}
	return 1, fmt.Errorf("no case in %s fails invariant %q", *caseFile, *invariant)
}

// loadCases reads either a single case document or a JSON list of cases.
func loadCases(path string) ([]*corpus.Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var list []*corpus.Case
	if err := json.Unmarshal(data, &list); err == nil {
		return list, nil
	}
	c, err := corpus.ParseCase(data)
	if err != nil {
		return nil, err
	}
	return []*corpus.Case{c}, nil
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
