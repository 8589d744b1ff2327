package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchmarkFile is the benchmark definition at the repository root.
const benchmarkFile = "BENCHMARK.json"

// benchmarkDef is the part of BENCHMARK.json the benchmark reads.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkDef(path string) (benchmarkDef, error) {
	var def benchmarkDef
	data, err := os.ReadFile(path)
	if err != nil {
		return def, err
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return def, fmt.Errorf("%s: %w", path, err)
	}
	return def, nil
}

// repeat is the stability mode: it runs each workload n times in fresh
// processes on seeds seed, seed+1, … — fresh inputs each run, as a
// comparison of two commits would use them — and prints, per metric, the
// median, the interquartile distance and the min–max range as shares of
// the median.  An end-to-end metric whose interquartile share exceeds a
// third of its BENCHMARK.json bound is marked unsteady, one that exceeds
// the whole bound is flagged.
func repeat(o options, names []string, stdout, stderr io.Writer) int {
	bounds := make(map[string]float64)
	if def, err := loadBenchmarkDef(benchmarkFile); err != nil {
		fmt.Fprintf(stderr, "bench: no bounds to flag against: %v\n", err)
	} else {
		for _, m := range def.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	code := 0
	for _, name := range names {
		values := make(map[string][]float64)
		for i := 0; i < o.repeat; i++ {
			seed := o.seed + uint64(i)
			rep, err := spawn(o, name, seed, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", name, seed, err)
				return 1
			}
			if !rep.Correct || rep.Failed > 0 {
				code = 1
				fmt.Fprintf(stderr, "bench: %s seed %d: correct=%v failed=%d: %s\n",
					name, seed, rep.Correct, rep.Failed, strings.Join(rep.Notes, "; "))
			}
			line := make([]string, 0, len(defs))
			for _, def := range defs {
				if v, ok := rep.Metrics[def.Name]; ok {
					values[def.Name] = append(values[def.Name], v.Value)
					line = append(line, fmt.Sprintf("%s=%.6g", def.Name, v.Value))
				}
			}
			fmt.Fprintf(stderr, "bench: %s seed %d: %s\n", name, seed, strings.Join(line, " "))
		}
		fmt.Fprintf(stdout, "\n%s: %d runs, seeds %d..%d, %ds windows\n\n", name, o.repeat, o.seed, o.seed+uint64(o.repeat)-1, o.seconds)
		fmt.Fprintln(stdout, "| metric | unit | median | IQR / median | (max−min) / median | bound | |")
		fmt.Fprintln(stdout, "|---|---|---:|---:|---:|---:|---|")
		for _, def := range defs {
			xs := values[def.Name]
			if len(xs) == 0 {
				continue
			}
			m := median(xs)
			lo, hi := xs[0], xs[0]
			for _, x := range xs {
				lo, hi = min(lo, x), max(hi, x)
			}
			spread, iqr := 0.0, iqrShare(xs)
			if m != 0 {
				spread = (hi - lo) / m
			}
			bound, mark := "", ""
			if b, ok := bounds[def.Name]; ok {
				bound = fmt.Sprintf("%.0f%%", 100*b)
				switch {
				case iqr > b:
					mark = "FLAG"
				case iqr > b/3:
					mark = "unsteady"
				}
			}
			fmt.Fprintf(stdout, "| %s | %s | %.6g | %.1f%% | %.1f%% | %s | %s |\n",
				def.Name, def.Unit, m, 100*iqr, 100*spread, bound, mark)
		}
	}
	return code
}
