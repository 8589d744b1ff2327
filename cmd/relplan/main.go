// Command relplan prints the differentiated retransmission plan (the
// paper's Section III-E analysis) for a workload, bit error rate and
// reliability goal: which messages get how many retransmissions, and the
// resulting Theorem 1 success probability.
//
// Usage:
//
//	relplan -workload bbw -ber 1e-7 -goal 0.999
//	relplan -workload bbw -ber 1e-7 -sil 3 -uniform
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	coefficient "github.com/flexray-go/coefficient"
	"github.com/flexray-go/coefficient/internal/frame"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "relplan:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("relplan", flag.ContinueOnError)
	var (
		kind    = fs.String("workload", "bbw", "workload: bbw, acc or synthetic")
		msgs    = fs.Int("messages", 40, "synthetic: number of messages")
		seed    = fs.Uint64("seed", 1, "synthetic seed")
		ber     = fs.Float64("ber", 1e-7, "bit error rate")
		goal    = fs.Float64("goal", 0, "reliability goal ρ in (0,1); 0 derives from -sil")
		sil     = fs.Int("sil", 3, "IEC 61508 SIL level used when -goal is 0")
		unitStr = fs.String("unit", "1s", "time unit u of Theorem 1")
		uniform = fs.Bool("uniform", false, "use the uniform plan instead of differentiated")
		maxRetx = fs.Int("max-retx", 0, "per-message retransmission cap (0: default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The planners read a non-positive cap as "use the default", so a
	// negative value would silently plan with the default instead.
	if *maxRetx < 0 {
		return fmt.Errorf("-max-retx %d: must be 0 (default) or positive", *maxRetx)
	}
	unit, err := time.ParseDuration(*unitStr)
	if err != nil {
		return fmt.Errorf("bad -unit: %w", err)
	}

	var set coefficient.MessageSet
	switch *kind {
	case "bbw":
		set = coefficient.BBW()
	case "acc":
		set = coefficient.ACC()
	case "synthetic":
		set, err = coefficient.Synthetic(coefficient.SyntheticOptions{Messages: *msgs, Seed: *seed})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown workload %q", *kind)
	}

	rho := *goal
	if rho == 0 {
		if *sil < 1 || *sil > 4 {
			return fmt.Errorf("bad -sil %d", *sil)
		}
		rho = coefficient.SIL(*sil).Goal(unit)
	}

	rmsgs := make([]coefficient.ReliabilityMessage, len(set.Messages))
	for i, m := range set.Messages {
		period := m.Period
		if period <= 0 {
			period = m.Deadline
		}
		rmsgs[i] = coefficient.ReliabilityMessage{
			Name:   m.Name,
			Bits:   frame.WireBits(m.Bytes()),
			Period: period,
		}
	}

	planFn := coefficient.PlanDifferentiated
	planName := "differentiated"
	if *uniform {
		planFn = coefficient.PlanUniform
		planName = "uniform"
	}
	plan, err := planFn(rmsgs, *ber, unit, rho, *maxRetx)
	if err != nil {
		return err
	}

	fmt.Printf("# %s plan for %s: BER=%g, goal=%.12f over %v\n", planName, set.Name, *ber, rho, unit)
	fmt.Printf("# achieved success probability: %.9f\n", plan.Success)
	fmt.Printf("# total retransmissions: %d configured, %.1f scheduled per %v\n",
		plan.Total(), plan.TotalPerUnit, unit)
	fmt.Printf("%-12s  %-10s  %-12s  %-5s\n", "message", "wire bits", "failure prob", "k")
	for i, rm := range rmsgs {
		p, err := coefficient.FrameFailureProb(*ber, rm.Bits)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s  %-10d  %-12.3e  %-5d\n", rm.Name, rm.Bits, p, plan.Retransmissions[i])
	}
	return nil
}
