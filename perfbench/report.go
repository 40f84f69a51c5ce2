package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"github.com/defender-game/defender/internal/par"
)

// report is everything one run measured and checked.
type report struct {
	digest, inputs    string
	attempted, failed int
	// e2e holds the end-to-end metrics, layer the per-layer ones (traced
	// runs only), both keyed by catalogue name.
	e2e, layer map[string]float64
	// samples is the number of per-operation latencies behind p50/p99.
	samples, beyondP99 int
	// problems lists every failed correctness check or invariant.
	problems []string
	notes    []string
	tracer   *tracer
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setLatencies fills the latency and throughput metrics from the
// per-operation latencies (ms) of a timed window lasting window.
func (r *report) setLatencies(latMS []float64, window time.Duration) {
	s := sortedCopy(latMS)
	r.samples, r.beyondP99 = len(s), beyond(len(s), 0.99)
	r.e2e["p50_ms"] = nearestRank(s, 0.50)
	r.e2e["p99_ms"] = nearestRank(s, 0.99)
	r.e2e["solve_s"] = window.Seconds()
	r.e2e["throughput_rps"] = float64(len(s)) / window.Seconds()
}

// notePeakRSS records the process's peak resident set so far; workloads
// call it when the timed work ends, before the checks allocate.
func (r *report) notePeakRSS() {
	peak, err := peakRSSMiB()
	if err != nil {
		r.problem("peak RSS: %v", err)
	}
	r.e2e["peak_rss_mb"] = peak
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// peakRSSMiB is the process's peak resident set so far (ru_maxrss,
// which Linux reports in KiB).
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueOfUnit `json:"metrics"`
}

type valueOfUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the provenance, every metric by name with its unit, the
// checks, and finally the one-line JSON result carrying the metrics of
// the catalogue the run reports: end-to-end, or per-layer when traced.
func (r *report) print(w io.Writer, cfg runConfig) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, boolInt(cfg.trace))
	fmt.Fprintf(w, "provenance nproc=%d gomaxprocs=%d par_threads=%d go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), par.Threads(), runtime.Version())
	fmt.Fprintf(w, "inputs %s digest=%s\n", r.inputs, r.digest)
	errRate := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(w, "ops attempted=%d failed=%d error_rate=%g\n", r.attempted, r.failed, errRate)
	fmt.Fprintf(w, "samples p50_ms=%d p99_ms=%d beyond_p99=%d\n", r.samples, r.samples, r.beyondP99)
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	catalogue, values := endToEnd, r.e2e
	if cfg.trace {
		catalogue, values = perLayer, r.layer
		values["error_rate"] = errRate
	}
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]valueOfUnit{}}
	for _, m := range catalogue {
		v := values[m.name]
		res.Metrics[m.name] = valueOfUnit{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "metric %s=%g %s (%s is better; moves: %s)\n", m.name, v, m.unit, m.better, m.moves)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAIL %s\n", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic("perfbench: " + err.Error())
	}
	fmt.Fprintf(w, "%s\n", line)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
