package main

import (
	"math"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
	}{
		{1, 0.5, 1},
		{1, 0.99, 1},
		{2, 0.5, 1}, // ceil(0.5·2) = 1: the lower middle
		{3, 0.5, 2},
		{4, 0.5, 2},
		{100, 0.99, 99}, // 0.99·100 is 99 exactly, not the next rank
		{100, 1, 100},
		{101, 0.99, 100},
		{1000, 0.99, 990},
		{10, 0.01, 1},
		{10, 1e-9, 1},
	} {
		if got := nearestRank(seq(tc.n), tc.q); got != tc.want {
			t.Errorf("nearestRank(1..%d, %g) = %g, want %g", tc.n, tc.q, got, tc.want)
		}
	}
	if got := nearestRank(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("nearestRank(empty) = %g, want NaN", got)
	}
	if got := beyond(1000, 0.99); got != 10 {
		t.Errorf("beyond(1000, 0.99) = %d, want 10", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median = %g, want 3", got)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	at := func(d int64) int64 { return d * int64(time.Millisecond) }
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "root", StartNS: at(0), EndNS: at(100)},
		{ID: 1, Parent: 0, Name: "a", StartNS: at(10), EndNS: at(40)},
		{ID: 2, Parent: 0, Name: "b", StartNS: at(30), EndNS: at(50)}, // overlaps a
		{ID: 3, Parent: 2, Name: "c", StartNS: at(35), EndNS: at(45)},
		{ID: 4, Parent: 0, Name: "a", StartNS: at(90), EndNS: at(120)}, // runs past root
	}}
	self := tr.selfTimes()
	for name, want := range map[string]int64{"root": 50, "a": 60, "b": 10, "c": 10} {
		if got := self[name]; got != time.Duration(at(want)) {
			t.Errorf("self(%s) = %v, want %dms", name, got, want)
		}
	}
	if got := tr.total("a"); got != 60*time.Millisecond {
		t.Errorf("total(a) = %v, want 60ms", got)
	}
}
