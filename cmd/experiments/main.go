// Command experiments regenerates every exhibit of the paper — Table I
// and Figures 1–8 — plus the quantitative experiments E1–E9 and E11 described in
// DESIGN.md.
//
//	experiments               # print every exhibit to stdout
//	experiments -exhibit fig5 # print one exhibit
//	experiments -list         # list exhibit names
package main

import (
	"flag"
	"fmt"
	"os"

	"flowsched/internal/report"
)

type exhibit struct {
	name string
	gen  func() (string, error)
}

func exhibits() []exhibit {
	return []exhibit{
		{"tableI", report.TableIText},
		{"fig1", report.Fig1},
		{"fig2", report.Fig2},
		{"fig3", report.Fig3},
		{"fig4", func() (string, error) { return report.Fig4(), nil }},
		{"fig5", report.Fig5},
		{"fig6", report.Fig6},
		{"fig7", report.Fig7},
		{"fig8", report.Fig8},
		{"e1", report.E1TrackingDrift},
		{"e2", report.E2Prediction},
		{"e3", report.E3Scaling},
		{"e4", report.E4CriticalPath},
		{"e5", report.E5Queries},
		{"e6", report.E6Risk},
		{"e7", report.E7Observability},
		{"e8", report.E8Scenarios},
		{"e9", report.E9FaultTolerance},
		// e10 (HTTP serving under load) is bench-backed only — see
		// perfbench (BENCHMARK.json) and EXPERIMENTS.md.
		{"e11", report.E11IncrementalRisk},
	}
}

func main() {
	which := flag.String("exhibit", "all", "exhibit to regenerate (all, tableI, fig1..fig8, e1..e9, e11)")
	list := flag.Bool("list", false, "list exhibit names and exit")
	flag.Parse()

	all := exhibits()
	if *list {
		for _, e := range all {
			fmt.Println(e.name)
		}
		return
	}
	ran := 0
	for _, e := range all {
		if *which != "all" && *which != e.name {
			continue
		}
		out, err := e.gen()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s ===\n%s\n", e.name, out)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: unknown exhibit %q (use -list)\n", *which)
		os.Exit(2)
	}
}
