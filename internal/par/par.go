// Package par holds the pooled int32/int8 scratch of the sparse solver's
// hot paths (pool.go) and Threads, the solver's thread count.
package par

// Threads returns the number of threads one solve runs on: always 1. The
// sparse solver is single-threaded because, measured on two real cores,
// parallel bodies lost or tied on BuildCSR and Bipartition, won at most
// 1.2× on Hopcroft–Karp, and the verifier's 1.3–2× win, on a stage that
// is a few percent of a solve, did not pay for a second implementation
// (SCALING.md "Why the solver is single-threaded"). Provenance lines
// report the figure.
func Threads() int { return 1 }
