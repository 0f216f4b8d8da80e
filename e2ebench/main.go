// Command e2ebench is the repository's end-to-end benchmark. In one process
// it serves a WAL-backed, file-backed RangePartial store over the wire
// protocol (as cmd/axmlserved does by default), drives one seeded workload
// through client connections, checks every answer against results computed
// from the generator's records, and ends its output with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones, and the run's spans are written as JSON.
// --repeat K runs the same command K times with seeds seed..seed+K-1 and
// prints each metric's median and quartiles. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var cfg config
	var trace, repeat int
	fs.StringVar(&cfg.workload, "workload", "", "read_zipf, query or durable_write")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "run length: planned operation counts are this times each workload's nominal rate")
	fs.IntVar(&trace, "trace", 0, "1: report per-layer metrics and write spans")
	fs.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "run"), "directory for the store files")
	fs.StringVar(&cfg.spans, "spans", "", "span file of a traced run (default .bench_build/trace/<workload>.json)")
	fs.IntVar(&repeat, "repeat", 0, "run the command this many times with consecutive seeds and print medians and quartiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		return errors.New("--seconds must be at least 1, --trace 0 or 1")
	}
	cfg.trace = trace == 1
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "trace", cfg.workload+".json")
	}
	if repeat > 0 {
		return repeatRuns(cfg, repeat, stdout)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	res, err := run(context.Background(), cfg, stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return errors.New("the program's answers failed the checks (see PROBLEM lines)")
	}
	return nil
}

// repeatRuns runs this binary k times, one process per seed, and prints
// each metric's median, quartiles and spread (quartile distance over the
// median), the figures the end-to-end bounds are set from.
func repeatRuns(cfg config, k int, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	var failedShare []float64
	for i := 0; i < k; i++ {
		seed := cfg.seed + int64(i)
		trace := "0"
		if cfg.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "--workload", cfg.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(cfg.seconds), "--trace", trace, "--dir", cfg.dir, "--spans", cfg.spans)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w\n%s", seed, err, out.String())
		}
		var res result
		if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", seed, err)
		}
		fmt.Fprintf(stdout, "seed %d: correct %v attempted %d failed %d", seed, res.Correct, res.Attempted, res.Failed)
		for _, n := range sortedKeys(res.Metrics) {
			m := res.Metrics[n]
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
			fmt.Fprintf(stdout, " %s=%.4g", n, m.Value)
		}
		fmt.Fprintln(stdout)
		failedShare = append(failedShare, float64(res.Failed)/float64(res.Attempted))
	}
	fmt.Fprintf(stdout, "%s, %d runs, seeds %d..%d, --seconds %d, --trace %v\n", cfg.workload, k, cfg.seed, cfg.seed+int64(k)-1, cfg.seconds, cfg.trace)
	fmt.Fprintf(stdout, "%-40s %14s %14s %14s %8s %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	summary := make(map[string]map[string]float64)
	for _, n := range sortedKeys(units) {
		q1, q2, q3 := quartiles(values[n])
		spread := ratio(q3-q1, q2)
		fmt.Fprintf(stdout, "%-40s %14.4f %14.4f %14.4f %7.2f%% %s\n", n, q1, q2, q3, 100*spread, units[n])
		summary[n] = map[string]float64{"q1": q1, "median": q2, "q3": q3, "spread": spread}
	}
	line, err := json.Marshal(map[string]any{"workload": cfg.workload, "runs": k, "failed_share": failedShare, "metrics": summary})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
