package main

import (
	"testing"

	"github.com/defender-game/defender/internal/graph"
)

func TestSameSeedSameDigest(t *testing.T) {
	for name, inputs := range map[string]func(int64, int) ([]*request, []*request, string){
		"serve-miss": missInputs, "serve-lp": lpInputs, "serve-hit": hitInputs,
	} {
		digest := func(seed int64) string {
			timed, warm, _ := inputs(seed, 40)
			return serveDigest(name, timed, warm)
		}
		if a, b := digest(1), digest(1); a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", name, a, b)
		}
		if a, b := digest(1), digest(2); a == b {
			t.Errorf("%s: seeds 1 and 2 both gave digest %s", name, a)
		}
	}
	sparse := func(seed int64) string { return sparseDigest(sparseInputs(seed, 5000, 3)) }
	if a, b := sparse(1), sparse(1); a != b {
		t.Errorf("sparse: seed 1 gave digests %s and %s", a, b)
	}
	if a, b := sparse(1), sparse(2); a == b {
		t.Errorf("sparse: seeds 1 and 2 both gave digest %s", a)
	}
}

func TestGeneratorsMakeValidInputs(t *testing.T) {
	r := newRNG(7, "test")
	for _, tc := range []struct {
		g         graphEdges
		bipartite bool
	}{
		{bipartitePA(r, 2, 3), true},
		{bipartitePA(r, 200, 2), true},
		{bipartitePA(r, 3000, 3), true},
		{barabasiAlbert(r, 10, 2), false},
		{barabasiAlbert(r, 14, 2), false},
	} {
		g := tc.g
		c, err := graph.BuildCSR(g.n, g.us, g.vs)
		if err != nil {
			t.Fatalf("n=%d: BuildCSR: %v", g.n, err)
		}
		if c.NumEdges() != g.m() {
			t.Errorf("n=%d: %d distinct edges of %d", g.n, c.NumEdges(), g.m())
		}
		if c.HasIsolatedVertex() {
			t.Errorf("n=%d: isolated vertex", g.n)
		}
		if tc.bipartite != c.IsBipartite() {
			t.Errorf("n=%d: bipartite=%v, want %v", g.n, c.IsBipartite(), tc.bipartite)
		}
	}
}

// The benchmark's own graph6 encoder must agree with the server's
// canonical form, which is the response-cache key.
func TestGraph6MatchesServerEncoding(t *testing.T) {
	r := newRNG(3, "test")
	for _, g := range []graphEdges{barabasiAlbert(r, 10, 2), barabasiAlbert(r, 62, 2), bipartitePA(r, 63, 2), bipartitePA(r, 256, 2)} {
		parsed, err := graph.ParseGraph6(graph6(g))
		if err != nil {
			t.Fatalf("n=%d: %v", g.n, err)
		}
		if parsed.NumVertices() != g.n || parsed.NumEdges() != g.m() {
			t.Fatalf("n=%d m=%d: parsed n=%d m=%d", g.n, g.m(), parsed.NumVertices(), parsed.NumEdges())
		}
		for i := range g.us {
			if !parsed.HasEdge(int(g.us[i]), int(g.vs[i])) {
				t.Fatalf("n=%d: edge (%d,%d) lost", g.n, g.us[i], g.vs[i])
			}
		}
		canon, err := graph.FormatGraph6(parsed)
		if err != nil || canon != graph6(g) {
			t.Errorf("n=%d: server encoding %q (%v), benchmark %q", g.n, canon, err, graph6(g))
		}
	}
}

func TestRequestListsAreDistinct(t *testing.T) {
	for name, inputs := range map[string]func(int64, int) ([]*request, []*request, string){
		"serve-miss": missInputs, "serve-lp": lpInputs,
	} {
		timed, warm, _ := inputs(5, 300)
		seen := map[string]bool{}
		for _, r := range append(timed, warm...) {
			key := string(r.body)
			if seen[key] {
				t.Fatalf("%s: request sent twice: %.80s", name, key)
			}
			seen[key] = true
		}
	}
}
