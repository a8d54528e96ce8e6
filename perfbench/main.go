// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives internal/blockstore directly with one
// closed-loop caller (Workers = 2, no fault injector, streaming decode
// on), checks every returned byte against a reference model, and prints
// each metric by name with its unit. The last line of standard output
// is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload point-read --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload range-scan --seed 1 --seconds 25 --trace 1
//	bash perfbench/run.sh --workload update-churn --seed 1 --seconds 25 --repeat 10
//	bash perfbench/run.sh --seconds 25 --counts 1,1009
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of a traced run of the same workload and seed. --repeat runs
// the workload that many times at consecutive seeds (plus once more at
// the first seed) in child processes and prints each metric's median,
// quartiles and relative spread, flagging any exact count that differs
// between two runs of one seed. --counts runs every workload once per
// listed seed and prints their exact counts side by side.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed: the same seed writes the same data and runs the same operations")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	repeat := fs.Int("repeat", 0, "run the workload this many times at consecutive seeds and report spreads")
	counts := fs.String("counts", "", "comma-separated seeds: run every workload once per seed and print exact counts")
	spans := fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *counts != "" {
		return countsMode(*counts, *seconds, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *repeat > 0 {
		return repeatMode(w, *seed, *seconds, *trace == 1, *repeat, stdout)
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1, *spans, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printResult(stdout, res)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Exact holds the counts that must repeat to the last digit for one
	// seed; it is printed on its own line, not in the JSON result.
	Exact map[string]float64 `json:"-"`
}

// printResult prints every metric as a "name value unit" line, the
// exact counts on one line, and the JSON result as the last line.
func printResult(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-42s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	exact, _ := json.Marshal(res.Exact)
	fmt.Fprintf(w, "exact %s\n", exact)
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}
