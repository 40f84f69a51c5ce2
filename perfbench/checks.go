package main

// checks.go checks the serve workloads' answers after the timed window,
// asserts each workload's invariants from the registry counters, and
// holds the traced run's two handler passes.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/defender-game/defender/internal/core"
	"github.com/defender-game/defender/internal/cover"
	"github.com/defender-game/defender/internal/graph"
	"github.com/defender-game/defender/internal/matching"
	"github.com/defender-game/defender/internal/server"
)

// maxReported bounds how many failures a run lists by name.
const maxReported = 10

// checkServe checks every timed response after the window. Each
// distinct request is answered again through the handler, now from the
// cache, and that answer is checked in full. A timed response passes when
// its status is 200, its cached flag is what the workload expects, and
// its result part hashes equal to the checked answer's. Failures count
// into rep. It returns each timed request's decoded response, nil where
// the request failed.
func checkServe(rep *report, wl serveWorkload, h http.Handler, reqs []*request, samples []sample) []*server.SolveResponse {
	refs := checkAnswers(wl, h, reqs)
	out := make([]*server.SolveResponse, len(samples))
	for i, s := range samples {
		resp, err := checkSample(wl, s, refs[reqs[i]])
		if err != nil {
			rep.failed++
			if rep.failed <= maxReported {
				rep.problem("request %d: %v", i, err)
			}
			continue
		}
		out[i] = resp
	}
	return out
}

// answer is one request's response fetched after the window and checked.
type answer struct {
	hash uint64
	resp *server.SolveResponse
	err  error
}

// checkAnswers fetches and checks the answer to each distinct request,
// on one goroutine per CPU.
func checkAnswers(wl serveWorkload, h http.Handler, reqs []*request) map[*request]*answer {
	refs := map[*request]*answer{}
	var distinct []*request
	for _, r := range reqs {
		if refs[r] == nil {
			refs[r] = &answer{}
			distinct = append(distinct, r)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(distinct); i = int(next.Add(1)) - 1 {
				r := distinct[i]
				*refs[r] = checkAnswer(wl, h, r)
			}
		}()
	}
	wg.Wait()
	return refs
}

func checkAnswer(wl serveWorkload, h http.Handler, r *request) answer {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(r.body)))
	body := rec.Body.Bytes()
	if rec.Code != http.StatusOK {
		return answer{err: fmt.Errorf("checking fetch: status %d: %.200s", rec.Code, body)}
	}
	var resp server.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return answer{err: fmt.Errorf("checking fetch: malformed body: %w", err)}
	}
	if resp.Result == nil {
		return answer{err: errors.New("checking fetch: response has no result")}
	}
	if err := checkResult(r, resp.Result); err != nil {
		return answer{err: err}
	}
	if wl.bipartite {
		rho, err := rhoCSR(r.g)
		if err != nil {
			return answer{err: err}
		}
		if resp.Result.Rho != rho {
			return answer{err: fmt.Errorf("rho=%d, the CSR stack gives %d", resp.Result.Rho, rho)}
		}
	}
	hash, _ := splitBody(body)
	return answer{hash: hash, resp: &resp}
}

// checkSample checks one timed response against the checked answer and
// returns it with the timed response's own cached flag and latency.
func checkSample(wl serveWorkload, s sample, ref *answer) (*server.SolveResponse, error) {
	if s.err != nil {
		return nil, fmt.Errorf("transport: %w", s.err)
	}
	if s.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", s.status, s.tail)
	}
	var tail struct {
		Cached  bool    `json:"cached"`
		SolveMS float64 `json:"solve_ms"`
	}
	dec := json.NewDecoder(io.MultiReader(strings.NewReader("{"), bytes.NewReader(s.tail)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tail); err != nil {
		return nil, fmt.Errorf("malformed body: %.200s: %w", s.tail, err)
	}
	if tail.Cached != wl.hits {
		return nil, fmt.Errorf("cached=%v, want %v", tail.Cached, wl.hits)
	}
	if ref.err != nil {
		return nil, ref.err
	}
	if s.resultHash != ref.hash {
		return nil, errors.New("the result differs from the checked answer to the same request")
	}
	resp := *ref.resp
	resp.Cached, resp.SolveMS = tail.Cached, tail.SolveMS
	return &resp, nil
}

// rhoCSR is ρ(G) on the sparse stack: Hopcroft–Karp, then Gallai's
// extension to a minimum edge cover.
func rhoCSR(g graphEdges) (int, error) {
	c, err := graph.BuildCSR(g.n, g.us, g.vs)
	if err != nil {
		return 0, fmt.Errorf("rho cross-check: %w", err)
	}
	mate, _, err := matching.MaximumBipartiteCSR(c)
	if err != nil {
		return 0, fmt.Errorf("rho cross-check: %w", err)
	}
	us, _, err := cover.MinimumEdgeCoverCSRFromMatching(c, mate)
	if err != nil {
		return 0, fmt.Errorf("rho cross-check: %w", err)
	}
	return len(us), nil
}

// checkResult checks a solve result against the graph that was sent.
func checkResult(req *request, res *server.SolveResult) error {
	g := req.g
	if res.Graph6 != req.g6 || res.N != g.n || res.M != g.m() || res.K != req.k || res.Attackers != 1 {
		return fmt.Errorf("result describes n=%d m=%d k=%d attackers=%d %q, sent n=%d m=%d k=%d %q",
			res.N, res.M, res.K, res.Attackers, res.Graph6, g.n, g.m(), req.k, req.g6)
	}
	if res.PureNE != (req.k >= res.Rho) {
		return fmt.Errorf("pure_ne=%v with k=%d rho=%d", res.PureNE, req.k, res.Rho)
	}
	ne := res.MixedNE
	if ne == nil {
		return fmt.Errorf("no mixed equilibrium: %v", res.Notes)
	}
	if res.GameValue == "" {
		return fmt.Errorf("no game value: %v", res.Notes)
	}
	adj := make(map[[2]int]bool, g.m())
	for i := range g.us {
		u, v := int(g.us[i]), int(g.vs[i])
		adj[[2]int{u, v}], adj[[2]int{v, u}] = true, true
	}
	switch ne.Family {
	case "k-matching", "perfect-matching", "regular":
		covered := make([]bool, g.n)
		for _, e := range ne.EdgeSupport {
			if e[0] < 0 || e[0] >= g.n || e[1] < 0 || e[1] >= g.n || !adj[e] {
				return fmt.Errorf("edge_support has %v, not an edge of G", e)
			}
			covered[e[0]], covered[e[1]] = true, true
		}
		for v, ok := range covered {
			if !ok {
				return fmt.Errorf("%s edge_support misses vertex %d", ne.Family, v)
			}
		}
	case "lp-minimax":
		sum := new(big.Rat)
		for _, p := range ne.TupleProbs {
			r, ok := new(big.Rat).SetString(p)
			if !ok {
				return fmt.Errorf("tuple probability %q", p)
			}
			sum.Add(sum, r)
		}
		if len(ne.TupleProbs) > 0 && sum.Cmp(big.NewRat(1, 1)) != 0 {
			return fmt.Errorf("tuple probabilities sum to %s", sum.RatString())
		}
	default:
		return fmt.Errorf("unknown family %q", ne.Family)
	}
	if ne.Family == "k-matching" {
		for i, u := range ne.VPSupport {
			for _, v := range ne.VPSupport[i+1:] {
				if adj[[2]int{u, v}] {
					return fmt.Errorf("vp_support has the edge (%d,%d)", u, v)
				}
			}
		}
	}
	if ne.Family == "k-matching" || ne.Family == "perfect-matching" {
		want := big.NewRat(int64(req.k), int64(len(ne.EdgeSupport))).RatString()
		if ne.HitProbability != want {
			return fmt.Errorf("hit_probability=%s, want k/|edge_support|=%s", ne.HitProbability, want)
		}
		if res.GameValueSource == "closed-form" && res.GameValue != want {
			return fmt.Errorf("closed-form game_value=%s, want %s", res.GameValue, want)
		}
	}
	return nil
}

// checkInvariants fails the run when the timed window did not measure
// what the workload claims: serve-hit answers only from the cache, the
// miss workloads never do, and no workload is shed by the broker.
func checkInvariants(rep *report, wl serveWorkload, delta counters) {
	if wl.hits && delta["server.cache.misses"] != 0 {
		rep.problem("invariant: %d cache misses in a hit workload", delta["server.cache.misses"])
	}
	if !wl.hits && delta["server.cache.hits"] != 0 {
		rep.problem("invariant: %d cache hits in a miss workload", delta["server.cache.hits"])
	}
	if delta["broker.rejected"] != 0 {
		rep.problem("invariant: the broker rejected %d requests", delta["broker.rejected"])
	}
}

// recordHandler drives the real handler through a recorder for each
// request, with a span around each call, and returns the median call in
// milliseconds.
func recordHandler(rep *report, tr *tracer, h http.Handler, reqs []*request) float64 {
	durs := make([]float64, len(reqs))
	for i, r := range reqs {
		hr := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(r.body))
		rec := httptest.NewRecorder()
		start := time.Now()
		tr.timed("server.handler", -1, i, func() { h.ServeHTTP(rec, hr) })
		durs[i] = ms(time.Since(start))
		if rec.Code != http.StatusOK {
			rep.problem("recorder pass: request %d: status %d", i, rec.Code)
		}
	}
	return median(durs)
}

// replayServe replays each request's handler sequence on the same inputs
// twice, bare and with a span around every layer call, and fills the
// per-request layer times from the traced pass.
func replayServe(rep *report, tr *tracer, wl serveWorkload, reqs []*request, samples []sample, resps []*server.SolveResponse) {
	for i, r := range resps {
		if r == nil {
			rep.problem("replay: request %d failed its check", i)
			return
		}
	}
	// Each request runs once bare and once traced, alternating which goes
	// first, so drift in machine speed falls on both passes alike.
	var bare time.Duration
	for i, r := range reqs {
		for pass := 0; pass < 2; pass++ {
			if (i+pass)%2 == 0 {
				start := time.Now()
				if err := replayOne(nil, wl, i, r, resps[i]); err != nil {
					rep.problem("replay: request %d: %v", i, err)
					return
				}
				bare += time.Since(start)
			} else if err := replayOne(tr, wl, i, r, resps[i]); err != nil {
				rep.problem("traced replay: request %d: %v", i, err)
				return
			}
		}
	}
	self := tr.selfTimes()
	perOp := func(name string) float64 { return ms(self[name]) / float64(len(reqs)) }
	for span, metric := range map[string]string{
		"server.decode": "server.decode_ms", "graph.parse": "graph.parse_ms", "graph.canon": "graph.canon_ms",
		"cover.rho": "cover.rho_ms", "core.solve_any": "core.solve_any_ms",
		"core.game_value": "core.game_value_ms", "server.encode": "server.encode_ms",
	} {
		rep.layer[metric] = perOp(span)
	}
	traced := tr.total("request")
	var loopback float64
	for _, s := range samples {
		loopback += s.latMS
	}
	rep.layer["trace.coverage"] = ms(traced-self["request"]) / loopback
	rep.layer["trace.overhead_pct"] = 100 * (float64(traced) - float64(bare)) / float64(bare)
}

// replayOne is one request's handler sequence: decode, parse,
// canonicalize, then on a miss the three solver stages, then encode the
// response the server sent. The solver stages must reproduce it.
func replayOne(tr *tracer, wl serveWorkload, op int, r *request, resp *server.SolveResponse) error {
	root := tr.start("request", -1, op)
	defer tr.end(root)
	var (
		req server.SolveRequest
		err error
	)
	tr.timed("server.decode", root, op, func() {
		dec := json.NewDecoder(bytes.NewReader(r.body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	})
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	var g *graph.Graph
	tr.timed("graph.parse", root, op, func() {
		if req.Graph6 != "" {
			g, err = graph.ParseGraph6(req.Graph6)
			return
		}
		g = graph.New(req.N)
		for _, e := range req.Edges {
			if err = g.AddEdge(e[0], e[1]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("parse: %w", err)
	}
	var g6 string
	tr.timed("graph.canon", root, op, func() { g6, err = graph.FormatGraph6(g) })
	if err != nil || g6 != resp.Result.Graph6 {
		return fmt.Errorf("canonical graph6 %q (%v), the server keyed %q", g6, err, resp.Result.Graph6)
	}
	if !wl.hits {
		if err := replaySolve(tr, root, op, g, req.K, resp.Result); err != nil {
			return err
		}
	}
	var out bytes.Buffer
	tr.timed("server.encode", root, op, func() {
		enc := json.NewEncoder(&out)
		enc.SetIndent("", "  ")
		err = enc.Encode(resp)
	})
	return err
}

func replaySolve(tr *tracer, root, op int, g *graph.Graph, k int, want *server.SolveResult) error {
	ctx := context.Background()
	var (
		rho    int
		family string
		err    error
	)
	tr.timed("cover.rho", root, op, func() { rho, err = cover.EdgeCoverNumberCtx(ctx, g) })
	if err != nil || rho != want.Rho {
		return fmt.Errorf("replayed rho=%d (%v), server said %d", rho, err, want.Rho)
	}
	tr.timed("core.solve_any", root, op, func() { _, family, err = core.SolveAnyCtx(ctx, g, 1, k) })
	if err != nil || family != want.MixedNE.Family {
		return fmt.Errorf("replayed family %q (%v), server said %q", family, err, want.MixedNE.Family)
	}
	tr.timed("core.game_value", root, op, func() { _, _, _, err = core.GameValueCtx(ctx, g, k) })
	if err != nil && !errors.Is(err, core.ErrValueTooLarge) {
		return fmt.Errorf("replayed game value: %w", err)
	}
	return nil
}
