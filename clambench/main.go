// Command clambench is the repository's benchmark. One closed-loop client
// drives a named workload against the public clam.Store API, checks every
// value the store returns against a shadow of the latest acknowledged
// writes, and prints three JSON lines: the run metadata, the full report,
// and last the result
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// whose metrics are the end-to-end ones with --trace 0 and the per-layer
// ones with --trace 1. README.md defines the workloads and every metric.
//
// Run it from the repository root through its wrapper, which builds it
// with every cache under .bench_build:
//
//	bash clambench/run.sh --workload wan-serial --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "nominal measured seconds; fixes the measured operation count")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics; 1 adds a traced run and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "clambench: need --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*name, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clambench:", err)
		os.Exit(2)
	}
	out, err := run(w, *name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clambench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, line := range []any{
		map[string]any{"meta": out.meta},
		map[string]any{"report": out.report},
		out.result,
	} {
		if err := enc.Encode(line); err != nil {
			fmt.Fprintln(os.Stderr, "clambench:", err)
			os.Exit(1)
		}
	}
	if !out.result.Correct {
		os.Exit(1)
	}
}
