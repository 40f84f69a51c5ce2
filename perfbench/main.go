// Command perfbench is the repository's benchmark. It runs one workload
// in this process against the program's public Go API and prints every
// metric by name with its unit, then a one-line JSON result. From the
// repository root, run.sh builds it and runs it:
//
//	bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 20 --trace 0
//
// Workloads: sparse-100k (repeated solves of a pool of 10^5-vertex
// graphs on the CSR stack), serve-miss, serve-lp and serve-hit
// (defenderd's handler behind a loopback HTTP listener).
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a separate replay that the benchmark times
// itself, and writes its spans as JSONL under --trace-dir. Inputs come
// from --seed alone. Any failed correctness check or invariant makes the
// exit status non-zero.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/defender-game/defender/internal/obs"
)

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

var workloads = map[string]func(runConfig) (*report, error){
	"sparse-100k": runSparse,
	"serve-miss":  func(cfg runConfig) (*report, error) { return runServe(cfg, serveMiss) },
	"serve-lp":    func(cfg runConfig) (*report, error) { return runServe(cfg, serveLP) },
	"serve-hit":   func(cfg runConfig) (*report, error) { return runServe(cfg, serveHit) },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	var (
		cfg      runConfig
		trace    int
		traceDir string
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&cfg.seconds, "seconds", 10, "sizes the timed work: seconds times the workload's nominal rate")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced replay instead of end-to-end metrics")
	fs.StringVar(&traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "directory for the traced run's span JSONL")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	cfg.trace = trace == 1

	// As cmd/defenderd does: the registry feeds the invariants and the
	// per-layer counters. No trace writer is installed.
	obs.Default().SetEnabled(true)
	rep, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	return finish(rep, cfg, traceDir, stdout)
}

// finish writes the traced run's spans, rejects metrics that are not
// numbers, prints the report and returns the exit status: non-zero when
// any check failed.
func finish(rep *report, cfg runConfig, traceDir string, stdout io.Writer) int {
	if rep.tracer != nil {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := rep.tracer.writeJSONL(path); err != nil {
			rep.problem("span JSONL: %v", err)
		} else {
			rep.note("spans %d written to %s", len(rep.tracer.spans), path)
		}
	}
	for name, v := range rep.e2e {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			rep.problem("end-to-end metric %s=%g is not a positive number", name, v)
			rep.e2e[name] = 0
		}
	}
	for name, v := range rep.layer {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problem("per-layer metric %s=%g is not finite", name, v)
			rep.layer[name] = 0
		}
	}
	rep.print(stdout, cfg)
	if !rep.correct() {
		return 1
	}
	return 0
}
