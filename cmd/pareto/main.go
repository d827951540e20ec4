// Command pareto demonstrates the paper's Section 2.2 methodology on the
// Example 1 chemistry scenario: it sweeps a family of schedules over the
// two conflicting criteria (drug-design response time vs. lab-course
// availability), prints the Pareto-optimal schedules with their partial-
// order ranks (Figure 1), and compares the on-line and off-line
// achievable regions (Figure 2).
//
// Usage:
//
//	pareto [-days 10] [-seed 1] [-csv out.csv]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"

	"jobsched/internal/durable"
	"jobsched/internal/objective"
	"jobsched/internal/policy"
)

func main() {
	var (
		days = flag.Int("days", 10, "scenario length in days")
		seed = flag.Int64("seed", 1, "scenario seed")
		csv  = flag.String("csv", "", "write the point clouds as CSV")
	)
	flag.Parse()
	if err := run(*days, *seed, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "pareto:", err)
		os.Exit(1)
	}
}

var reserves = []float64{0, 0.25, 0.5, 0.75, 1}

func run(days int, seed int64, csv string) error {
	sc := policy.ChemistryScenario(seed, days)
	fmt.Printf("Example 1 scenario: %d jobs, %d-node machine, %d course sessions\n\n",
		len(sc.Jobs), sc.Machine.Nodes, len(sc.Sessions))

	// Figure 1: Pareto front + partial order.
	ranked, err := policy.Figure1(sc, reserves)
	if err != nil {
		return err
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].Rank > ranked[j].Rank })
	fmt.Println("Figure 1. Schedules in the two-criteria space")
	fmt.Printf("  %-28s %-22s %-16s %s\n", "schedule", "drug response (s)", "course miss (%)", "rank")
	for _, p := range ranked {
		rank := fmt.Sprintf("%d", p.Rank)
		if p.Rank < 0 {
			rank = "dominated"
		}
		fmt.Printf("  %-28s %-22.0f %-16.1f %s\n", p.Label, p.Criteria[0], p.Criteria[1], rank)
	}
	fmt.Println()

	// Figure 2: on-line vs off-line regions.
	online, offline, err := policy.Figure2(sc, reserves)
	if err != nil {
		return err
	}
	fmt.Println("Figure 2. On-line versus off-line achievable schedules")
	summarize := func(name string, pts []objective.Point) {
		bestDrug, bestMiss := pts[0].Criteria[0], pts[0].Criteria[1]
		for _, p := range pts {
			if p.Criteria[0] < bestDrug {
				bestDrug = p.Criteria[0]
			}
			if p.Criteria[1] < bestMiss {
				bestMiss = p.Criteria[1]
			}
		}
		fmt.Printf("  %-9s %d schedules, best drug response %.0f s, best course miss %.1f%%\n",
			name, len(pts), bestDrug, bestMiss)
	}
	summarize("on-line", online)
	summarize("off-line", offline)

	if csv != "" {
		// bufio latches the first write error; ReplaceFile's Flush reports it.
		err := durable.ReplaceFile(csv, func(w *bufio.Writer) error {
			fmt.Fprintln(w, "set,label,drug_response_s,course_miss_pct,rank")
			for _, p := range ranked {
				fmt.Fprintf(w, "figure1,%s,%g,%g,%d\n", p.Label, p.Criteria[0], p.Criteria[1], p.Rank)
			}
			for _, p := range online {
				fmt.Fprintf(w, "online,%s,%g,%g,\n", p.Label, p.Criteria[0], p.Criteria[1])
			}
			for _, p := range offline {
				fmt.Fprintf(w, "offline,%s,%g,%g,\n", p.Label, p.Criteria[0], p.Criteria[1])
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("\n(points written to %s)\n", csv)
	}
	return nil
}
