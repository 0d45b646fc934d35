// Command e2ebench is the repository's end-to-end benchmark: it runs the
// AMF gateway in front of 2 shard groups × 2 replicas in one process,
// drives it with an open-loop workload built from a seed, checks every
// output, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer ledger) as one JSON object on the last line.
//
//	bash e2ebench/run.sh --workload adapt-rank --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and what each per-layer
// metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: adapt-rank, ingest-durable or mixed-online")
		seed    = fs.Int64("seed", 1, "workload seed: inputs, schedule and catalogue derive from it")
		seconds = fs.Float64("seconds", 36, "measured time: the nominal step plus the rate ladder (the whole nominal step with --trace 1)")
		traced  = fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	tmpRoot := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "e2e-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rep, err := runBench(benchConfig{w: w, seed: *seed, seconds: *seconds, traced: *traced == 1, dir: dir, setups: 5})
	if err != nil {
		return err
	}
	hostJSON, _ := json.Marshal(host(root, dir))
	fmt.Fprintf(stdout, "host %s\n", hostJSON)
	for _, line := range rep.lines {
		fmt.Fprintln(stdout, line)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, rep.metrics}
	final, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(final))
	if !rep.correct {
		return fmt.Errorf("output check failed: %s", strings.Join(rep.violations, "; "))
	}
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: the metrics of the final line, the human
// readable lines printed before it, and the check verdict.
type report struct {
	metrics    map[string]metric
	lines      []string
	correct    bool
	violations []string
	attempted  int
	failed     int
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) violate(err error) {
	r.correct = false
	r.violations = append(r.violations, err.Error())
}

// sortedNames returns a metric map's names in order, for stable printing.
func sortedNames(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
