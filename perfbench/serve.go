package main

// serve.go holds the serve-* workloads: defenderd's handler, built with
// server.New(server.Config{}) as cmd/defenderd builds it, served by
// net/http on a 127.0.0.1 listener and driven by a closed loop of nproc
// clients on at most nproc keep-alive connections. A closed loop, because
// callers of /v1/solve block on the reply. Each run sends a fixed list of
// requests generated from the seed, so both sides of a comparison do the
// same work and get the same percentile sample counts; the list holds
// --seconds times the workload's nominal rate at the commit that defined
// the benchmark.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/defender-game/defender/internal/obs"
	"github.com/defender-game/defender/internal/server"
)

// request is one pre-generated /v1/solve call and what its answer must
// describe.
type request struct {
	body []byte
	g    graphEdges
	g6   string
	k    int
}

type serveWorkload struct {
	name string
	// nominalRPS sizes the timed list: round(seconds × nominalRPS).
	nominalRPS float64
	// inputs returns the timed list of size n and the warm-up list, and
	// a description of both.
	inputs func(seed int64, n int) (timed, warm []*request, desc string)
	// hits says every timed request must be a cache hit; otherwise every
	// one must be a miss.
	hits bool
	// bipartite inputs get their ρ cross-checked on the CSR stack.
	bipartite bool
}

// Every serve workload: k=4 bipartite graphs of 128–256 vertices, or
// 10–14-vertex Barabási–Albert graphs with k in {1, 2}.
var (
	serveMiss = serveWorkload{name: "serve-miss", nominalRPS: 800, inputs: missInputs, bipartite: true}
	serveLP   = serveWorkload{name: "serve-lp", nominalRPS: 200, inputs: lpInputs}
	serveHit  = serveWorkload{name: "serve-hit", nominalRPS: 1300, inputs: hitInputs, hits: true, bipartite: true}
)

const (
	warmRequests = 64
	hitPool      = 64
	// setupRuns is how many servers set-up builds and warms; setup_s is
	// the median and the last one serves the timed list.
	setupRuns = 7
	// replayRequests bounds the traced replay and recorder passes.
	replayRequests = 256
)

// distinct fills n slots with draw(i), drawing slot i again while its
// cache key is already in seen.
func distinct(n int, seen map[string]bool, draw func(i int) *request) []*request {
	out := make([]*request, n)
	for i := range out {
		for out[i] == nil {
			r := draw(i)
			key := fmt.Sprintf("%s|%d", r.g6, r.k)
			if !seen[key] {
				seen[key] = true
				out[i] = r
			}
		}
	}
	return out
}

// bipartiteRequest draws a k=4 bipartite preferential-attachment graph
// on n vertices. Sizes are a function of the slot, not of the seed, so
// every seed sends the same mix of sizes and only the edges differ.
func bipartiteRequest(r *rng, n int, asGraph6 bool) *request {
	g := bipartitePA(r, n, 2)
	req := &request{g: g, g6: graph6(g), k: 4}
	if asGraph6 {
		req.body = graph6Body(req.g6, req.k)
	} else {
		req.body = edgeBody(g, req.k)
	}
	return req
}

func missInputs(seed int64, n int) (timed, warm []*request, desc string) {
	seen := map[string]bool{}
	gen := func(r *rng) func(int) *request {
		return func(i int) *request { return bipartiteRequest(r, 128+i%129, false) }
	}
	timed = distinct(n, seen, gen(newRNG(seed, "serve-miss/timed")))
	warm = distinct(warmRequests, seen, gen(newRNG(seed, "serve-miss/warm")))
	return timed, warm, "bipartite PA n=128..256 attach=2 k=4 as n+edges"
}

func lpInputs(seed int64, n int) (timed, warm []*request, desc string) {
	seen := map[string]bool{}
	gen := func(r *rng) func(int) *request {
		return func(i int) *request {
			g := barabasiAlbert(r, 10+i%5, 2)
			req := &request{g: g, g6: graph6(g), k: 1 + i/5%2}
			req.body = graph6Body(req.g6, req.k)
			return req
		}
	}
	timed = distinct(n, seen, gen(newRNG(seed, "serve-lp/timed")))
	warm = distinct(warmRequests, seen, gen(newRNG(seed, "serve-lp/warm")))
	return timed, warm, "Barabasi-Albert n=10..14 attach=2 k=1..2 as graph6"
}

func hitInputs(seed int64, n int) (timed, warm []*request, desc string) {
	r := newRNG(seed, "serve-hit/pool")
	pool := distinct(hitPool, map[string]bool{}, func(i int) *request { return bipartiteRequest(r, 128+2*i, true) })
	timed = make([]*request, n)
	for i := range timed {
		timed[i] = pool[i%hitPool]
	}
	// Warm-up solves the pool, then sends it again as hits.
	warm = append(append([]*request{}, pool...), pool...)
	return timed, warm, fmt.Sprintf("pool of %d bipartite PA n=128..254 attach=2 k=4 as graph6", hitPool)
}

// serveDigest identifies a serve workload's request lists.
func serveDigest(name string, timed, warm []*request) string {
	d := newDigest(name)
	for _, list := range [][]*request{timed, warm} {
		d.ints(len(list))
		for _, r := range list {
			d.str(string(r.body))
		}
	}
	return d.sum()
}

// backend is what a serve workload drives: an API handler and the
// shutdown of what stands behind it.
type backend struct {
	handler http.Handler
	close   func(context.Context) error
}

// defenderd builds the server as cmd/defenderd does, with its defaults.
func defenderd() backend {
	srv := server.New(server.Config{})
	return backend{handler: srv.Handler(), close: srv.Close}
}

// liveServer is a backend behind a loopback listener.
type liveServer struct {
	backend
	hs     *http.Server
	url    string
	served chan error
}

func listen(b backend) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(fmt.Errorf("listen: %w", err), b.close(context.Background()))
	}
	l := &liveServer{backend: b, hs: &http.Server{Handler: b.handler},
		url: "http://" + ln.Addr().String() + "/v1/solve", served: make(chan error, 1)}
	go func() { l.served <- l.hs.Serve(ln) }()
	return l, nil
}

// stop shuts the listener and the backend down and waits for both.
func (l *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, l.close(ctx))
}

// sample is one timed request's outcome. The client keeps no response
// body: it hashes the part before the "cached" field, which is the same
// for every response to one request, and keeps the rest.
type sample struct {
	latMS      float64
	status     int
	err        error
	size       int
	resultHash uint64
	tail       []byte
}

var bodySeed = maphash.MakeSeed()

// splitBody returns the hash of b's result part and a copy of the rest.
// A body that is not a solve response is kept whole, up to 1 KiB, for the
// failure report.
func splitBody(b []byte) (uint64, []byte) {
	i := bytes.LastIndex(b, []byte(`"cached"`))
	if i < 0 {
		return 0, append([]byte(nil), b[:min(len(b), 1024)]...)
	}
	return maphash.Bytes(bodySeed, b[:i]), append([]byte(nil), b[i:]...)
}

// loadClient is the closed-loop load generator: clients goroutines on
// at most clients keep-alive connections.
type loadClient struct {
	clients int
	http    *http.Client
	tr      *http.Transport
}

func newLoadClient(clients int) *loadClient {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	return &loadClient{clients: clients, http: &http.Client{Transport: tr}, tr: tr}
}

// drive sends every request once, each client taking the next unsent
// one as soon as its previous reply is read, and returns the outcomes in
// list order and the wall time.
func (c *loadClient) drive(url string, reqs []*request) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				out[i] = c.send(url, reqs[i].body, &buf)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

func (c *loadClient) send(url string, body []byte, buf *bytes.Buffer) sample {
	start := time.Now()
	resp, err := c.http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return sample{latMS: ms(time.Since(start)), err: err}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s := sample{latMS: ms(time.Since(start)), status: resp.StatusCode, err: err, size: buf.Len()}
	s.resultHash, s.tail = splitBody(buf.Bytes())
	return s
}

func runServe(cfg runConfig, wl serveWorkload) (*report, error) {
	return runServeOn(cfg, wl, defenderd)
}

// runServeOn runs wl against the backends newBackend builds.
func runServeOn(cfg runConfig, wl serveWorkload, newBackend func() backend) (*report, error) {
	rep := newReport()
	n := int(float64(cfg.seconds)*wl.nominalRPS + 0.5)
	timed, warm, desc := wl.inputs(cfg.seed, n)
	rep.digest = serveDigest(wl.name, timed, warm)
	client := newLoadClient(runtime.NumCPU())
	defer client.tr.CloseIdleConnections()
	rep.inputs = fmt.Sprintf("%s timed=%d warm=%d clients=%d", desc, len(timed), len(warm), client.clients)

	live, setups, err := warmUp(client, newBackend, warm)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := live.stop(); err != nil {
			rep.problem("stop server: %v", err)
		}
	}()
	rep.e2e["setup_s"] = median(setups)

	w := measure(client, live, timed)
	rep.notePeakRSS()
	lat := make([]float64, len(w.samples))
	for i, s := range w.samples {
		lat[i] = s.latMS
	}
	rep.setLatencies(lat, w.wall)
	rep.attempted = len(w.samples)
	checkInvariants(rep, wl, w.delta)
	resps := checkServe(rep, wl, live.handler, timed, w.samples)
	if cfg.trace {
		serveLayers(rep, wl, newBackend, live.handler, timed, w, resps)
	}
	return rep, nil
}

// warmUp builds and warms setupRuns servers, each from server.New to the
// last warm-up response, and keeps the last one running.
func warmUp(client *loadClient, newBackend func() backend, warm []*request) (*liveServer, []float64, error) {
	setups := make([]float64, setupRuns)
	var live *liveServer
	for i := range setups {
		if live != nil {
			if err := live.stop(); err != nil {
				return nil, nil, fmt.Errorf("stop warm-up server: %w", err)
			}
			client.tr.CloseIdleConnections()
		}
		runtime.GC()
		start := time.Now()
		l, err := listen(newBackend())
		if err != nil {
			return nil, nil, err
		}
		live = l
		out, _ := client.drive(live.url, warm)
		setups[i] = time.Since(start).Seconds()
		for j, s := range out {
			if s.err != nil || s.status != http.StatusOK {
				_ = live.stop() // the warm-up error is the one to report
				return nil, nil, fmt.Errorf("warm-up request %d: status %d: %v", j, s.status, s.err)
			}
		}
	}
	return live, setups, nil
}

// window is what the timed window measured.
type window struct {
	samples []sample
	wall    time.Duration
	// delta holds the registry counters' increments over the window.
	delta      counters
	mem0, mem1 runtime.MemStats
	// entries is the response cache's size after the window; queueWait
	// and run are the broker's p50 seconds during it.
	entries, queueWait, run float64
}

// measure sends the timed list. The registry is reset first so its
// histograms describe the window alone.
func measure(client *loadClient, live *liveServer, timed []*request) window {
	var w window
	entriesBefore := obs.Default().Snapshot().Gauges["server.cache.entries"]
	obs.Default().Reset()
	runtime.GC()
	before := readCounters()
	runtime.ReadMemStats(&w.mem0)
	w.samples, w.wall = client.drive(live.url, timed)
	runtime.ReadMemStats(&w.mem1)
	w.delta = readCounters().minus(before)
	after := obs.Default().Snapshot()
	// Reset zeroed the gauge, and only a store sets it again.
	w.entries = max(entriesBefore, after.Gauges["server.cache.entries"])
	w.queueWait = after.Histograms["broker.queue_wait.seconds"].P50
	w.run = after.Histograms["broker.run_seconds"].P50
	return w
}

// serveLayers fills the per-layer metrics of a traced run: counter
// deltas and broker histograms from the window, then the recorder pass
// and the replay over the first replayRequests requests.
func serveLayers(rep *report, wl serveWorkload, newBackend func() backend, live http.Handler,
	timed []*request, w window, resps []*server.SolveResponse) {
	ops := float64(len(w.samples))
	for name, counter := range map[string]string{
		"matching.blossom_searches_per_op": "matching.blossom.searches",
		"matching.hk_phases_per_op":        "matching.hopcroftkarp.phases",
		"lp.solves_per_op":                 "lp.simplex.solves",
		"lp.pivots_per_op":                 "lp.simplex.pivots",
		"par.tasks_per_solve":              "par.tasks",
		"par.tasks_inline_per_solve":       "par.tasks_inline",
	} {
		rep.layer[name] = float64(w.delta[counter]) / ops
	}
	bodyBytes, families := 0, map[string]int{}
	for i, s := range w.samples {
		bodyBytes += s.size
		if resps[i] != nil {
			families[resps[i].Result.MixedNE.Family]++
		}
	}
	for family, count := range families {
		rep.layer["core.family."+family] = float64(count) / ops
	}
	hits, misses := w.delta["server.cache.hits"], w.delta["server.cache.misses"]
	rep.layer["server.cache.hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	rep.layer["server.cache.entries"] = w.entries
	rep.layer["server.response_kb"] = float64(bodyBytes) / ops / 1024
	rep.layer["broker.queue_wait_ms_p50"] = w.queueWait * 1e3
	rep.layer["broker.run_ms_p50"] = w.run * 1e3
	rep.layer["broker.rejected"] = float64(w.delta["broker.rejected"])
	rep.layer["runtime.alloc_mb_per_op"] = float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc) / (1 << 20) / ops
	rep.layer["runtime.gc_cycles_per_op"] = float64(w.mem1.NumGC-w.mem0.NumGC) / ops

	replay := timed[:min(len(timed), replayRequests)]
	tr := newTracer()
	handler := live
	if !wl.hits {
		// A fresh backend, so the recorder pass's requests miss again.
		fresh := newBackend()
		handler = fresh.handler
		defer func() {
			if err := fresh.close(context.Background()); err != nil {
				rep.problem("stop recorder backend: %v", err)
			}
		}()
	}
	handlerMS := recordHandler(rep, tr, handler, replay)
	rep.layer["server.handler_ms_p50"] = handlerMS
	rep.layer["server.transport_ms_p50"] = rep.e2e["p50_ms"] - handlerMS
	replayServe(rep, tr, wl, replay, w.samples[:len(replay)], resps[:len(replay)])
	rep.tracer = tr
}
