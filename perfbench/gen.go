package main

// gen.go makes every benchmark input from the --seed argument with the
// benchmark's own generator, so a change to internal/graph's generators
// cannot change what is measured. Two commits that print the same input
// digest ran the same inputs.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strconv"
)

// rng is splitmix64: small, fast and fixed forever, unlike a standard
// library source whose stream a toolchain upgrade could change.
type rng struct{ s uint64 }

// newRNG derives an independent stream for one purpose (a workload's
// timed list, its warm-up list, ...) from the run seed.
func newRNG(seed int64, stream string) *rng {
	h := sha256.Sum256([]byte(strconv.FormatInt(seed, 10) + "/" + stream))
	return &rng{s: binary.LittleEndian.Uint64(h[:8])}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n) for 0 < n < 2^32 by multiply-shift.
func (r *rng) intn(n int) int {
	return int((r.next() >> 32) * uint64(n) >> 32)
}

// graphEdges is a simple undirected graph on vertices [0, n) as parallel
// endpoint slices, each edge once.
type graphEdges struct {
	n      int
	us, vs []int32
}

func (g graphEdges) m() int { return len(g.us) }

// bipartitePA grows a bipartite preferential-attachment graph: even
// vertices on one side, odd on the other, seeded by the edge {0, 1}.
// Every later vertex joins min(attach, |other side|) distinct vertices of
// the other side, drawn with probability proportional to degree, or
// uniformly one draw in ten. Every vertex gets an edge, so there are no
// isolated vertices.
func bipartitePA(r *rng, n, attach int) graphEdges {
	g := graphEdges{n: n, us: make([]int32, 0, n*attach), vs: make([]int32, 0, n*attach)}
	g.us, g.vs = append(g.us, 0), append(g.vs, 1)
	// ends[s] lists side s's endpoints once per incident edge: a uniform
	// draw from it is a degree-proportional draw.
	ends := [2][]int32{{0}, {1}}
	picked := make([]int32, 0, attach)
	for v := 2; v < n; v++ {
		side, other := v%2, 1-v%2
		otherCount := (v + 1 - other) / 2
		picked = pickDistinct(r, picked[:0], min(attach, otherCount), func() int32 {
			if r.intn(10) == 0 {
				return int32(2*r.intn(otherCount) + other)
			}
			return ends[other][r.intn(len(ends[other]))]
		})
		for _, u := range picked {
			g.us, g.vs = append(g.us, u), append(g.vs, int32(v))
			ends[other] = append(ends[other], u)
			ends[side] = append(ends[side], int32(v))
		}
	}
	return g
}

// barabasiAlbert grows a preferential-attachment graph seeded by the edge
// {0, 1}: every later vertex v joins min(attach, v) distinct earlier
// vertices, drawn with probability proportional to degree, or uniformly
// one draw in ten. No vertex is isolated.
func barabasiAlbert(r *rng, n, attach int) graphEdges {
	g := graphEdges{n: n}
	g.us, g.vs = append(g.us, 0), append(g.vs, 1)
	ends := []int32{0, 1}
	picked := make([]int32, 0, attach)
	for v := 2; v < n; v++ {
		picked = pickDistinct(r, picked[:0], min(attach, v), func() int32 {
			if r.intn(10) == 0 {
				return int32(r.intn(v))
			}
			return ends[r.intn(len(ends))]
		})
		for _, u := range picked {
			g.us, g.vs = append(g.us, u), append(g.vs, int32(v))
			ends = append(ends, u, int32(v))
		}
	}
	return g
}

// pickDistinct appends want distinct draws to dst, in ascending order so
// the edge order does not depend on the order of the draws.
func pickDistinct(r *rng, dst []int32, want int, draw func() int32) []int32 {
	for len(dst) < want {
		c := draw()
		dup := false
		for _, d := range dst {
			dup = dup || d == c
		}
		if !dup {
			dst = append(dst, c)
		}
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j-1] > dst[j]; j-- {
			dst[j-1], dst[j] = dst[j], dst[j-1]
		}
	}
	return dst
}

// graph6 encodes g in the graph6 format (n up to 258047): the vertex
// count, then the upper triangle of the adjacency matrix column by
// column, six bits per printable byte.
func graph6(g graphEdges) string {
	n := g.n
	adj := make([]bool, n*n)
	for i := range g.us {
		u, v := int(g.us[i]), int(g.vs[i])
		adj[u*n+v], adj[v*n+u] = true, true
	}
	var out []byte
	if n <= 62 {
		out = append(out, byte(n+63))
	} else {
		out = append(out, 126, byte(n>>12&63+63), byte(n>>6&63+63), byte(n&63+63))
	}
	var cur, bits byte
	for j := 1; j < n; j++ {
		for i := 0; i < j; i++ {
			cur <<= 1
			if adj[i*n+j] {
				cur |= 1
			}
			if bits++; bits == 6 {
				out, cur, bits = append(out, cur+63), 0, 0
			}
		}
	}
	if bits > 0 {
		out = append(out, cur<<(6-bits)+63)
	}
	return string(out)
}

// edgeBody is the n+edges spelling of a /v1/solve request body.
func edgeBody(g graphEdges, k int) []byte {
	edges := make([][2]int, g.m())
	for i := range edges {
		edges[i] = [2]int{int(g.us[i]), int(g.vs[i])}
	}
	return mustJSON(struct {
		N     int      `json:"n"`
		Edges [][2]int `json:"edges"`
		K     int      `json:"k"`
	}{g.n, edges, k})
}

// graph6Body is the graph6 spelling of a /v1/solve request body.
func graph6Body(g6 string, k int) []byte {
	return mustJSON(struct {
		Graph6 string `json:"graph6"`
		K      int    `json:"k"`
	}{g6, k})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("perfbench: " + err.Error())
	}
	return b
}

// digest accumulates the bytes that define a workload's inputs.
type digest struct{ h hash.Hash }

func newDigest(workload string) *digest {
	d := &digest{h: sha256.New()}
	d.str(workload)
	return d
}

func (d *digest) str(s string) {
	d.ints(len(s))
	d.h.Write([]byte(s))
}

func (d *digest) ints(xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		d.h.Write(b[:])
	}
}

func (d *digest) int32s(xs []int32) {
	d.ints(len(xs))
	b := make([]byte, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
	d.h.Write(b)
}

// sum is the digest printed with every result: "sha256:" and 16 hex
// digits.
func (d *digest) sum() string {
	return fmt.Sprintf("sha256:%s", hex.EncodeToString(d.h.Sum(nil))[:16])
}
