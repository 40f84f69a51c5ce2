package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
)

// smallLP is serve-lp with a short request list.
var smallLP = serveWorkload{name: "serve-lp", nominalRPS: 40, inputs: lpInputs}

func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func TestServeAgainstDefenderd(t *testing.T) {
	cfg := runConfig{workload: "serve-lp", seed: 1, seconds: 1}
	rep, err := runServeOn(cfg, smallLP, defenderd)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := finish(rep, cfg, t.TempDir(), &out); code != 0 {
		t.Fatalf("exit %d\n%s", code, out.String())
	}
	res := lastResult(t, out.String())
	if !res.Correct || res.Attempted != 40 || res.Failed != 0 {
		t.Errorf("result %+v", res)
	}
	for _, m := range endToEnd {
		if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
			t.Errorf("metric %s = %+v", m.name, v)
		}
	}
}

// A backend that answers the timed requests with 500s and malformed
// bodies must give a positive error rate and a non-zero exit.
func TestFailuresAreCounted(t *testing.T) {
	timed, _, _ := lpInputs(1, 40)
	corrupt := map[string]bool{}
	for _, r := range timed {
		corrupt[string(r.body)] = true
	}
	var calls atomic.Int64
	stub := func() backend {
		b := defenderd()
		inner := b.handler
		b.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			if corrupt[string(body)] {
				switch calls.Add(1) % 3 {
				case 0:
					w.WriteHeader(http.StatusInternalServerError)
					io.WriteString(w, `{"error":{"code":"internal","message":"stub"}}`)
					return
				case 1:
					io.WriteString(w, `{"result": {"graph6": `)
					return
				}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			inner.ServeHTTP(w, r)
		})
		return b
	}
	cfg := runConfig{workload: "serve-lp", seed: 1, seconds: 1}
	rep, err := runServeOn(cfg, smallLP, stub)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := finish(rep, cfg, t.TempDir(), &out); code == 0 {
		t.Fatalf("exit 0 with a failing backend\n%s", out.String())
	}
	res := lastResult(t, out.String())
	if res.Correct || res.Failed == 0 || res.Attempted != 40 {
		t.Errorf("result %+v", res)
	}
	if !strings.Contains(out.String(), "error_rate=") || strings.Contains(out.String(), "error_rate=0\n") {
		t.Errorf("no positive error_rate in\n%s", out.String())
	}
}

func TestFlagErrorsExitNonZero(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-lp", "--trace", "2"},
		{"--workload", "serve-lp", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d, stdout %q", args, code, out.String())
		}
	}
}

// BENCHMARK.json and the catalogue must name the same metrics, units and
// directions, and the same workloads.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		json []metric
		defs []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the catalogue %d", len(tc.json), len(tc.defs))
		}
		for i, m := range tc.json {
			d := tc.defs[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("BENCHMARK.json has %+v, the catalogue %+v", m, d)
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not runnable", w.Name)
		}
	}
}
