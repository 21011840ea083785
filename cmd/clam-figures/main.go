// Command clam-figures regenerates every table and figure of the paper's
// evaluation (Figures 3–10, Tables 2–3, the §7.3.1 ablations and the
// §7.2.1/§7.4 headline numbers) on the simulated device substrate.
//
// Usage:
//
//	clam-figures [-scale small|medium|large] [-only fig6,table2,...]
//
// Each report prints the paper's claim next to the measured rows so the
// qualitative comparison (who wins, by what factor, where crossovers fall)
// is direct. The small scale's output is pinned in
// internal/experiments/testdata/figures-small.golden.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	scaleFlag := flag.String("scale", "medium", "experiment scale: small, medium, or large")
	onlyFlag := flag.String("only", "", "comma-separated report ids (default: all)")
	flag.Parse()

	var sc experiments.Scale
	switch *scaleFlag {
	case "small":
		sc = experiments.Small
	case "medium":
		sc = experiments.Medium
	case "large":
		sc = experiments.Large
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	type driver struct {
		id  string
		run func() (experiments.Report, error)
	}
	drivers := []driver{
		{"fig3", func() (experiments.Report, error) { return experiments.Fig3(), nil }},
		{"fig4", func() (experiments.Report, error) { return experiments.Fig4(), nil }},
		{"tuning", func() (experiments.Report, error) { return experiments.TuningTable(), nil }},
		{"fig5", func() (experiments.Report, error) { return experiments.Fig5(sc) }},
		{"table2", func() (experiments.Report, error) { return experiments.Table2(sc) }},
		{"fig6", func() (experiments.Report, error) { return experiments.Fig6(sc) }},
		{"fig7", func() (experiments.Report, error) { return experiments.Fig7(sc) }},
		{"table3", func() (experiments.Report, error) { return experiments.Table3(sc) }},
		{"fig8", func() (experiments.Report, error) { return experiments.Fig8(sc) }},
		{"fig9", func() (experiments.Report, error) { return experiments.Fig9(sc) }},
		{"fig10", func() (experiments.Report, error) { return experiments.Fig10(sc) }},
		{"ablations", func() (experiments.Report, error) { return experiments.Ablations(sc) }},
		{"headline", func() (experiments.Report, error) { return experiments.Headline(sc) }},
	}

	selected := map[string]bool{}
	if *onlyFlag != "" {
		for _, id := range strings.Split(*onlyFlag, ",") {
			selected[strings.TrimSpace(id)] = true
		}
	}

	fmt.Printf("BufferHash/CLAM evaluation reproduction — scale %q (flash %d MB, DRAM %d MB)\n\n",
		sc.Name, sc.FlashMB, sc.MemMB)
	for _, d := range drivers {
		if len(selected) > 0 && !selected[d.id] {
			continue
		}
		rep, err := d.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", d.id, err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
	}
}
