package main

// sparse.go is the sparse-100k workload: a pool of 10^5-vertex bipartite
// preferential-attachment graphs solved in turn, again and again,
// in-process through the CSR stack at par's default thread budget.
//
// Why this size: 10^5 vertices is the smallest decade at which the
// Hopcroft–Karp and bipartition frontiers reach two of par's 2^15-index
// grains, so par fans out; a 10^6-vertex graph gives only a few solves in
// a run, each bound by memory traffic that other tenants of a shared host
// disturb. Why a pool: one graph's solve time depends on its structure
// (Hopcroft–Karp takes 16 to 20 phases across seeds), so a run that solves
// one graph measures its seed as well as the code; over a pool that
// averages out.

import (
	"fmt"
	"math/big"
	"runtime"
	"time"

	"github.com/defender-game/defender/internal/core"
	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/obs"
)

const (
	sparseN      = 100_000
	sparseGraphs = 16
	sparseAttach = 3
	sparseK      = 4
	sparseNu     = 10
	// sparseBuilds is how many times set-up loads the pool; setup_s is
	// the median.
	sparseBuilds = 5
	// sparseSolvesPerSecond sizes the timed work: the rate at which the
	// commit that defined the benchmark solved these graphs on a 2-core box.
	sparseSolvesPerSecond = 4
)

// sparseAnswer is what one solve establishes; the checks compare it
// against its own invariants and against the traced replay.
type sparseAnswer struct {
	matched, rho, is, tuples int
	gain, hit                *big.Rat
}

func (a sparseAnswer) String() string {
	return fmt.Sprintf("rho=%d |M|=%d |IS|=%d tuples=%d gain=%s hit=%s",
		a.rho, a.matched, a.is, a.tuples, a.gain.RatString(), a.hit.RatString())
}

// sparseSolved is what the timed solves of one pool graph gave: the first
// solve's answer and equilibrium, and every solve's latency in ms.
type sparseSolved struct {
	ans sparseAnswer
	ne  *core.SparseEquilibrium
	lat []float64
}

func runSparse(cfg runConfig) (*report, error) {
	rep := newReport()
	gs := sparseInputs(cfg.seed, sparseN, sparseGraphs)
	rep.digest = sparseDigest(gs)
	m := 0
	for _, g := range gs {
		m += g.m()
	}
	rep.inputs = fmt.Sprintf("%d bipartite PA graphs n=%d total_m=%d attach=%d k=%d nu=%d",
		len(gs), sparseN, m, sparseAttach, sparseK, sparseNu)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	builds := make([]float64, sparseBuilds)
	cs := make([]*graph.CSR, len(gs))
	for i := range builds {
		runtime.GC()
		start := time.Now()
		for j, g := range gs {
			id := tr.start("graph.build_csr", -1, -1)
			built, err := graph.BuildCSR(g.n, g.us, g.vs)
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("BuildCSR of graph %d: %w", j, err)
			}
			cs[j] = built
		}
		builds[i] = time.Since(start).Seconds()
	}
	rep.e2e["setup_s"] = median(builds)

	// The timed work: seconds × sparseSolvesPerSecond solves, at least
	// three so the median has a middle, cycling through the pool; the
	// first solve of each graph is cold. Every solve of a graph must give
	// the same answer.
	solves := max(3, int(float64(cfg.seconds)*sparseSolvesPerSecond+0.5))
	lat := make([]float64, solves)
	solved := make([]*sparseSolved, len(cs))
	var (
		total    time.Duration
		ms0, ms1 runtime.MemStats
	)
	runtime.GC()
	before := readCounters()
	runtime.ReadMemStats(&ms0)
	for i := range lat {
		if i > 0 {
			runtime.GC()
		}
		j := i % len(cs)
		start := time.Now()
		a, e, err := solveSparse(cs[j])
		elapsed := time.Since(start)
		total += elapsed
		lat[i] = ms(elapsed)
		rep.attempted++
		switch {
		case err != nil:
			rep.failed++
			rep.problem("solve %d of graph %d: %v", i, j, err)
		case solved[j] == nil:
			solved[j] = &sparseSolved{ans: a, ne: e}
		case a.String() != solved[j].ans.String():
			rep.failed++
			rep.problem("solve %d of graph %d gave %s, an earlier solve %s", i, j, a, solved[j].ans)
		}
		if solved[j] != nil {
			solved[j].lat = append(solved[j].lat, lat[i])
		}
	}
	runtime.ReadMemStats(&ms1)
	rep.notePeakRSS()
	delta := readCounters().minus(before)
	rep.setLatencies(lat, total)
	rep.e2e["solve_s"] = median(lat) / 1e3
	for j, s := range solved {
		if s != nil {
			checkSparse(rep, cs[j], s.ans, s.ne)
			rep.note("answer graph %d %s", j, s.ans)
		}
	}

	if cfg.trace {
		rep.layer["graph.build_csr_ms"] = median(builds) * 1e3 / float64(len(cs))
		perSolve := func(v uint64) float64 { return float64(v) / float64(solves) }
		rep.layer["graph.bipartitions_per_solve"] = perSolve(delta["graph.csr.bipartitions"])
		rep.layer["matching.csr_phases_per_solve"] = perSolve(delta["matching.csr.hopcroftkarp.phases"])
		rep.layer["par.tasks_per_solve"] = perSolve(delta["par.tasks"])
		rep.layer["par.tasks_inline_per_solve"] = perSolve(delta["par.tasks_inline"])
		rep.layer["runtime.alloc_mb_per_op"] = perSolve(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		rep.layer["runtime.gc_cycles_per_op"] = perSolve(uint64(ms1.NumGC - ms0.NumGC))
		replaySparse(rep, tr, cs, solved)
		rep.tracer = tr
	}
	return rep, nil
}

// sparseInputs is the workload's pool: count graphs of n vertices, each
// from its own stream of the seed.
func sparseInputs(seed int64, n, count int) []graphEdges {
	gs := make([]graphEdges, count)
	for i := range gs {
		gs[i] = bipartitePA(newRNG(seed, fmt.Sprintf("sparse-100k/%d", i)), n, sparseAttach)
	}
	return gs
}

// sparseDigest identifies the solved instances.
func sparseDigest(gs []graphEdges) string {
	d := newDigest("sparse-100k")
	d.ints(len(gs), sparseK, sparseNu)
	for _, g := range gs {
		d.ints(g.n)
		d.int32s(g.us)
		d.int32s(g.vs)
	}
	return d.sum()
}

// solveSparse is the timed pipeline: ρ(G) by Gallai's theorem from one
// Hopcroft–Karp matching, then the k-matching equilibrium and its exact
// Theorem 3.4 audit.
func solveSparse(c *graph.CSR) (sparseAnswer, *core.SparseEquilibrium, error) {
	side, err := c.Bipartition()
	if err != nil {
		return sparseAnswer{}, nil, fmt.Errorf("bipartition: %w", err)
	}
	mate, err := matching.HopcroftKarpCSR(c, side)
	if err != nil {
		return sparseAnswer{}, nil, fmt.Errorf("hopcroft-karp: %w", err)
	}
	coverU, _, err := cover.MinimumEdgeCoverCSRFromMatching(c, mate)
	if err != nil {
		return sparseAnswer{}, nil, fmt.Errorf("edge cover: %w", err)
	}
	ne, err := core.SolveKMatchingCSR(c, sparseNu, sparseK)
	if err != nil {
		return sparseAnswer{}, nil, fmt.Errorf("k-matching: %w", err)
	}
	if err := core.VerifyKMatchingCSR(ne); err != nil {
		return sparseAnswer{}, nil, fmt.Errorf("verify: %w", err)
	}
	return answerOf(matching.SizeCSR(mate), len(coverU), ne), ne, nil
}

func answerOf(matched, rho int, ne *core.SparseEquilibrium) sparseAnswer {
	return sparseAnswer{matched: matched, rho: rho, is: len(ne.VPSupport), tuples: len(ne.Tuples),
		gain: ne.DefenderGain(), hit: ne.HitProbability()}
}

// checkSparse checks the solve from outside the solver: Gallai's
// ρ = n − |M|, the closed forms hit = k/|E(D(tp))| and gain = ν·hit, and
// that the edge support covers V while the attacker support is
// independent.
func checkSparse(rep *report, c *graph.CSR, a sparseAnswer, ne *core.SparseEquilibrium) {
	n := c.NumVertices()
	if a.rho != n-a.matched {
		rep.problem("rho=%d, want n-|M|=%d", a.rho, n-a.matched)
	}
	if want := big.NewRat(sparseK, int64(len(ne.EdgeU))); a.hit.Cmp(want) != 0 {
		rep.problem("hit=%s, want k/|E(D(tp))|=%s", a.hit.RatString(), want.RatString())
	}
	if want := new(big.Rat).Mul(big.NewRat(sparseNu, 1), a.hit); a.gain.Cmp(want) != 0 {
		rep.problem("gain=%s, want nu*hit=%s", a.gain.RatString(), want.RatString())
	}
	covered := make([]bool, n)
	for i := range ne.EdgeU {
		if !c.HasEdge(int(ne.EdgeU[i]), int(ne.EdgeV[i])) {
			rep.problem("support edge (%d,%d) is not in G", ne.EdgeU[i], ne.EdgeV[i])
			return
		}
		covered[ne.EdgeU[i]], covered[ne.EdgeV[i]] = true, true
	}
	for v, ok := range covered {
		if !ok {
			rep.problem("edge support misses vertex %d", v)
			return
		}
	}
	inVP := make([]bool, n)
	for _, v := range ne.VPSupport {
		inVP[v] = true
	}
	for _, v := range ne.VPSupport {
		for _, u := range c.Neighbors(int(v)) {
			if inVP[u] {
				rep.problem("attacker support has the edge (%d,%d)", v, u)
				return
			}
		}
	}
}

// replaySparse re-runs the pipeline on each solved pool graph one stage
// at a time with a span around each call, and checks the replay
// reproduces the timed answer. Stage metrics are the mean self time per
// graph; the untraced reference is each graph's median timed solve.
func replaySparse(rep *report, tr *tracer, cs []*graph.CSR, solved []*sparseSolved) {
	var untraced time.Duration
	replayed := 0
	for j, s := range solved {
		if s == nil {
			continue
		}
		if !replayGraph(rep, tr, cs[j], j, s.ans) {
			return
		}
		untraced += time.Duration(median(s.lat) * float64(time.Millisecond))
		replayed++
	}
	if replayed == 0 {
		return
	}
	self := tr.selfTimes()
	for name, metric := range map[string]string{
		"graph.bipartition": "graph.bipartition_ms", "matching.hk": "matching.hk_ms",
		"matching.hk_subgraph": "matching.hk_subgraph_ms", "cover.edge_cover": "cover.edge_cover_ms",
		"cover.partition": "cover.partition_ms", "core.atuple": "core.atuple_ms", "core.verify": "core.verify_ms",
	} {
		rep.layer[metric] = ms(self[name]) / float64(replayed)
	}
	total := tr.total("sparse.solve")
	rep.layer["trace.coverage"] = float64(total-self["sparse.solve"]) / float64(untraced)
	rep.layer["trace.overhead_pct"] = 100 * (float64(total) - float64(untraced)) / float64(untraced)
}

// replayGraph replays pool graph j, the span op, and reports whether it
// reproduced the timed answer.
func replayGraph(rep *report, tr *tracer, c *graph.CSR, j int, timed sparseAnswer) bool {
	var (
		side []int8
		mate []int32
		cov  []int32
		part cover.PartitionCSR
		ne   *core.SparseEquilibrium
	)
	root := tr.start("sparse.solve", -1, j)
	err := func() (err error) {
		tr.timed("graph.bipartition", root, j, func() { side, err = c.Bipartition() })
		if err != nil {
			return err
		}
		tr.timed("matching.hk", root, j, func() { mate, err = matching.HopcroftKarpCSR(c, side) })
		if err != nil {
			return err
		}
		tr.timed("cover.edge_cover", root, j, func() { cov, _, err = cover.MinimumEdgeCoverCSRFromMatching(c, mate) })
		if err != nil {
			return err
		}
		tr.timed("cover.partition", root, j, func() { part, err = cover.FindNEPartitionCSR(c) })
		if err != nil {
			return err
		}
		tr.timed("core.atuple", root, j, func() { ne, err = core.AlgorithmATupleCSR(c, sparseNu, sparseK, part) })
		if err != nil {
			return err
		}
		tr.timed("core.verify", root, j, func() { err = core.VerifyKMatchingCSR(ne) })
		return err
	}()
	tr.end(root)
	if err != nil {
		rep.problem("traced replay of graph %d: %v", j, err)
		return false
	}
	// The partition's own matching, timed alone: it is the second
	// Hopcroft–Karp run of a solve.
	tr.timed("matching.hk_subgraph", -1, j, func() { matching.HopcroftKarpCSRSubgraph(c, side) })

	if got := answerOf(matching.SizeCSR(mate), len(cov), ne); got.String() != timed.String() {
		rep.problem("traced replay of graph %d gave %s, timed solve gave %s", j, got, timed)
		return false
	}
	return true
}

// counters is a snapshot of the registry's counters.
type counters map[string]uint64

func readCounters() counters { return obs.Default().Snapshot().Counters }

func (c counters) minus(before counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}
