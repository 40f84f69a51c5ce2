// The -scaling mode: instead of parsing `go test -bench` output, run the
// sparse-core pipeline itself — generate a bipartite preferential-
// attachment graph at each decade from 10^3 to 10^6 vertices, compute a
// k-matching NE with core.SolveKMatchingCSR, audit it against the
// Theorem 3.4 conditions with VerifyKMatchingCSR, and emit one schema-v2
// table per size into the same bench-record stream cmd/benchdiff gates.
// SCALING.md documents how to read the resulting curve.
package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/defender-game/defender/internal/benchrec"
	"github.com/defender-game/defender/internal/core"
	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/obs"
)

// scalingConfig carries the -scaling-* flags.
type scalingConfig struct {
	maxN   int
	attach int
	k      int
	nu     int
	seed   int64
	repeat int
}

// scalingSizes is the 10^3 → 10^6 decade ladder, trimmed by -scaling-max-n
// (CI smoke caps it at 10^4; the committed curve runs the full ladder).
func scalingSizes(maxN int) []int {
	var sizes []int
	for n := 1_000; n <= maxN; n *= 10 {
		sizes = append(sizes, n)
	}
	return sizes
}

// runScaling executes the scaling ladder — every size of the decade
// ladder, each solved single-threaded — and writes one bench record to
// out/history like the parser path. Exit codes: 0 ok, 1 empty ladder, 2
// solve or write error.
func runScaling(cfg scalingConfig, out, history string, stdout, stderr io.Writer) int {
	sizes := scalingSizes(cfg.maxN)
	if len(sizes) == 0 {
		fmt.Fprintf(stderr, "benchkernel: -scaling-max-n %d leaves no sizes to run\n", cfg.maxN)
		return 1
	}
	if cfg.repeat < 1 {
		cfg.repeat = 1
	}
	// Counters (graph.csr.builds, matching.csr.hopcroftkarp.phases, ...)
	// land in the record's metrics snapshot for the CI shape assertions.
	obs.Default().SetEnabled(true)

	rep := &benchrec.Report{
		Suite:            "csr-scaling",
		Seed:             cfg.seed,
		WorkersRequested: 1,
		WorkersEffective: 1,
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		BenchRepeat:      cfg.repeat,
	}
	for _, n := range sizes {
		minWall := 0.0
		for rep0 := 0; rep0 < cfg.repeat; rep0++ {
			wallMS, err := scalingRun(n, cfg, stdout, rep0 == 0)
			if err != nil {
				fmt.Fprintf(stderr, "benchkernel: n=%d: %v\n", n, err)
				return 2
			}
			if rep0 == 0 || wallMS < minWall {
				minWall = wallMS
			}
		}
		rep.Tables = append(rep.Tables, benchrec.Table{
			ID:          fmt.Sprintf("ba_bipartite/n=%d", n),
			Rows:        1,
			Cells:       n,
			CellTiming:  true,
			Samples:     cfg.repeat,
			WallMS:      minWall,
			CellsPerSec: float64(n) / (minWall / 1e3),
		})
		rep.TotalWallMS += minWall
	}
	rep.StampEnvironment("")
	rep.Metrics = obs.Default().Snapshot()

	if out != "" {
		if err := rep.Save(out); err != nil {
			fmt.Fprintln(stderr, "benchkernel:", err)
			return 2
		}
	}
	if history != "" {
		p, err := benchrec.AppendHistory(history, rep)
		if err != nil {
			fmt.Fprintln(stderr, "benchkernel:", err)
			return 2
		}
		fmt.Fprintf(stdout, "appended %s\n", p)
	}
	fmt.Fprintf(stdout, "%d scaling size(s), %d sample(s) each\n", len(rep.Tables), cfg.repeat)
	return 0
}

// scalingRun executes one (generate, solve, verify) cycle at size n and
// returns its wall time in milliseconds. The generator is re-seeded per
// run so every repetition solves the identical instance. When chatty, the
// per-size summary line is printed — the exact lines quoted in
// SCALING.md's worked transcript.
func scalingRun(n int, cfg scalingConfig, stdout io.Writer, chatty bool) (float64, error) {
	start := time.Now()
	gen := graph.NewSeededGenerator(cfg.seed)
	c := gen.BarabasiAlbertBipartiteCSR(n, cfg.attach)
	buildMS := float64(time.Since(start).Microseconds()) / 1e3

	// Pure-NE side of the paper (Theorem 3.1): ρ(G) via CSR Hopcroft–Karp
	// plus the Gallai extension — the edge-cover existence bound every
	// pure equilibrium rests on.
	mate, _, err := matching.MaximumBipartiteCSR(c)
	if err != nil {
		return 0, err
	}
	coverUS, _, err := cover.MinimumEdgeCoverCSRFromMatching(c, mate)
	if err != nil {
		return 0, err
	}
	rho := len(coverUS)

	solveStart := time.Now()
	ne, err := core.SolveKMatchingCSRVerified(c, cfg.nu, cfg.k)
	if err != nil {
		return 0, err
	}
	solveMS := float64(time.Since(solveStart).Microseconds()) / 1e3
	if chatty {
		fmt.Fprintf(stdout,
			"n=%d m=%d k=%d nu=%d rho=%d |IS|=%d tuples=%d gain=%s hit=%s build=%.1fms solve+verify=%.1fms\n",
			n, c.NumEdges(), cfg.k, cfg.nu, rho, len(ne.VPSupport), len(ne.Tuples),
			ne.DefenderGain().RatString(), ne.HitProbability().RatString(), buildMS, solveMS)
	}
	return float64(time.Since(start).Microseconds()) / 1e3, nil
}
