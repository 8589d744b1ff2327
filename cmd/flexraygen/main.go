// Command flexraygen generates reproducible FlexRay workloads: the paper's
// BBW and ACC sets, synthetic periodic sets, and SAE-derived aperiodic
// sets, printed as JSON or a text table.
//
// Usage:
//
//	flexraygen -workload bbw
//	flexraygen -workload synthetic -messages 40 -seed 7 -format json
//	flexraygen -workload sae -first-id 81 -count 30
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	coefficient "github.com/flexray-go/coefficient"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "flexraygen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("flexraygen", flag.ContinueOnError)
	var (
		kind     = fs.String("workload", "bbw", "workload to generate: bbw, acc, synthetic or sae")
		messages = fs.Int("messages", 40, "synthetic: number of messages")
		count    = fs.Int("count", 30, "sae: number of aperiodic messages")
		firstID  = fs.Int("first-id", 81, "sae: first dynamic frame ID")
		seed     = fs.Uint64("seed", 1, "generator seed")
		format   = fs.String("format", "table", "output format: table or json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var (
		set coefficient.MessageSet
		err error
	)
	switch *kind {
	case "bbw":
		set = coefficient.BBW()
	case "acc":
		set = coefficient.ACC()
	case "synthetic":
		set, err = coefficient.Synthetic(coefficient.SyntheticOptions{
			Messages: *messages,
			Seed:     *seed,
		})
	case "sae":
		// SAEAperiodic maps non-positive values to its defaults; reject
		// them rather than print a set other than the one asked for.
		if *count < 1 {
			return fmt.Errorf("-count %d: must be positive", *count)
		}
		if *firstID < 1 {
			return fmt.Errorf("-first-id %d: must be positive", *firstID)
		}
		set, err = coefficient.SAEAperiodic(coefficient.SAEAperiodicOptions{
			FirstID: *firstID,
			Count:   *count,
			Seed:    *seed,
		})
	default:
		return fmt.Errorf("unknown workload %q", *kind)
	}
	if err != nil {
		return err
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(set)
	case "table":
		printTable(set)
		return nil
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

func printTable(set coefficient.MessageSet) {
	fmt.Printf("# workload %s: %d messages, %d nodes, %d bits total\n",
		set.Name, len(set.Messages), set.Nodes(), set.TotalBits())
	fmt.Printf("%-4s  %-12s  %-4s  %-9s  %-10s  %-10s  %-10s  %-5s\n",
		"id", "name", "node", "kind", "period", "offset", "deadline", "bits")
	for _, m := range set.Messages {
		fmt.Printf("%-4d  %-12s  %-4d  %-9s  %-10v  %-10v  %-10v  %-5d\n",
			m.ID, m.Name, m.Node, m.Kind, m.Period, m.Offset, m.Deadline, m.Bits)
	}
}
