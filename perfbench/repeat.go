package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// childRun is what one child process of the benchmark reported.
type childRun struct {
	seed  uint64
	res   result
	exact map[string]float64
	phase string // the child's timed-phase summary line
}

// runChild runs this binary once as a child process with the given
// workload, seed and settings, waits for it, and parses its output. A
// failed child's error carries the last line it wrote to stderr.
func runChild(name string, seed uint64, seconds float64, traced bool) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
	var out, errOut bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errOut
	if err := cmd.Run(); err != nil {
		lines := strings.Split(strings.TrimSpace(errOut.String()), "\n")
		return nil, fmt.Errorf("%s seed %d: %w: %s", name, seed, err, lines[len(lines)-1])
	}
	run := &childRun{seed: seed}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "timed phase ") {
			run.phase = line
		}
		if rest, ok := strings.CutPrefix(line, "exact "); ok {
			if err := json.Unmarshal([]byte(rest), &run.exact); err != nil {
				return nil, fmt.Errorf("%s seed %d: exact counts: %w", name, seed, err)
			}
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &run.res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
	}
	return run, nil
}

// pyQuartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (its default
// "exclusive" method), so the spreads printed here are the ones the
// benchmark's bounds are checked against.
func pyQuartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// repeatMode runs one workload n times at seeds seed..seed+n-1 and once
// more at seed, then prints each metric's median, quartiles and spread
// (interquartile distance over the median). It exits non-zero when an
// exact count differs between the two runs of seed, which would mean
// hidden nondeterminism, or when a run aborts or fails a request.
func repeatMode(w *workload, seed uint64, seconds float64, traced bool, n int, stdout io.Writer) int {
	status := 0
	var runs []*childRun
	for i := 0; i < n; i++ {
		run, err := runChild(w.name, seed+uint64(i), seconds, traced)
		if err != nil {
			fmt.Fprintf(stdout, "FLAG run %2d: %v\n", i+1, err)
			status = 1
			continue
		}
		fmt.Fprintf(stdout, "run %2d seed %d: %s\n", i+1, run.seed, run.phase)
		runs = append(runs, run)
	}
	if len(runs) == 0 {
		return 1
	}
	again, err := runChild(w.name, runs[0].seed, seconds, traced)
	if err != nil {
		fmt.Fprintf(stdout, "FLAG rerun: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "rerun  seed %d: %s\n", again.seed, again.phase)
	names := make([]string, 0, len(runs[0].res.Metrics))
	for name := range runs[0].res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-42s %12s %12s %12s %8s  unit\n", "metric", "q1", "median", "q3", "spread")
	var perRun []string
	for _, name := range names {
		vals := make([]float64, len(runs))
		for i, run := range runs {
			vals[i] = run.res.Metrics[name].Value
		}
		q1, q3 := pyQuartiles(vals)
		med := median(vals)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(stdout, "%-42s %12.6g %12.6g %12.6g %8.4f  %s\n", name, q1, med, q3, spread, runs[0].res.Metrics[name].Unit)
		perRun = append(perRun, fmt.Sprintf("%-42s %.5g", name, vals))
	}
	fmt.Fprintf(stdout, "per run, in seed order:\n%s\n", strings.Join(perRun, "\n"))
	for _, run := range runs {
		if run.res.Failed > 0 || !run.res.Correct {
			fmt.Fprintf(stdout, "FLAG seed %d: %d failed requests\n", run.seed, run.res.Failed)
			status = 1
		}
	}
	repeated := true
	for k, v := range runs[0].exact {
		if again.exact[k] != v {
			fmt.Fprintf(stdout, "FLAG exact count %s differs between two runs of seed %d: %v vs %v\n", k, again.seed, v, again.exact[k])
			repeated = false
			status = 1
		}
	}
	if repeated {
		fmt.Fprintf(stdout, "exact counts repeat for seed %d\n", again.seed)
	}
	return status
}

// countsMode runs every workload once per listed seed and prints their
// exact counts side by side as one JSON object, workload -> seed ->
// counts. A listed seed that was not used while tuning is the held-out
// seed later claims can be rechecked on.
func countsMode(list string, seconds float64, stdout, stderr io.Writer) int {
	var seeds []uint64
	for _, f := range strings.Split(list, ",") {
		s, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: bad seed %q\n", f)
			return 2
		}
		seeds = append(seeds, s)
	}
	status := 0
	out := map[string]map[string]any{}
	for _, w := range workloads {
		out[w.name] = map[string]any{}
		for _, seed := range seeds {
			key := strconv.FormatUint(seed, 10)
			run, err := runChild(w.name, seed, seconds, false)
			switch {
			case err != nil:
				out[w.name][key] = map[string]string{"error": err.Error()}
				status = 1
			case run.res.Failed > 0:
				out[w.name][key] = map[string]string{"error": fmt.Sprintf("%d failed requests", run.res.Failed)}
				status = 1
			default:
				out[w.name][key] = run.exact
			}
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return status
}
