package main

import (
	"context"
	"encoding/json"
	"io"
	"net/url"
	"os"
	"testing"
	"time"

	"repro/internal/core"
)

// Every workload, untraced and traced, emits exactly its declared
// metrics with their units, and no operation fails on the current code.
func TestWorkloadsSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(options{workload: wl.name, seed: 1, seconds: 2, trace: traced, report: io.Discard})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.name, traced,
					res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", wl.name, traced, d.name, m.Unit, d.unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.name, d.name, m.Value)
				}
			}
		}
	}
}

// perturbHeadline is a replica double: it serves every experiment
// correctly except for a nudged headline.
func perturbHeadline(ctx context.Context, id string, p core.Params) (core.Result, error) {
	e, _ := core.ByID(id)
	res, _, err := e.RunWith(ctx, p)
	if res.Headline != nil {
		h := *res.Headline * (1 + 1e-9)
		res.Headline = &h
	}
	return res, err
}

// A replica that perturbs headlines is caught by the oracle on the
// interactive path and on sampled sweep points alike.
func TestPerturbedReplicaCountsAsFailed(t *testing.T) {
	for _, name := range []string{"interactive-routed", "sweep-cold"} {
		res, err := run(options{workload: name, seed: 3, seconds: 1, report: io.Discard, runner: perturbHeadline})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: perturbed replica passed: correct=%v failed=%d of %d", name,
				res.Correct, res.Failed, res.Attempted)
		}
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the program
// emits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// Self time subtracts the union of children, not their sum, and clips
// children to the parent.
func TestCovered(t *testing.T) {
	ms := time.Millisecond
	in := interval{10 * ms, 20 * ms}
	ivs := []interval{{5 * ms, 12 * ms}, {11 * ms, 14 * ms}, {16 * ms, 30 * ms}}
	if got, want := covered(ivs, in), 8*ms; got != want {
		t.Fatalf("covered = %v, want %v", got, want)
	}
}

// The client, front-end, wire and replica self times of a routed
// request add up to the client span.
func TestAnalyzeDecomposesRoutedRequest(t *testing.T) {
	us := time.Microsecond
	v, err := newVariant("E7", "f=0.9", "bces=1024")
	if err != nil {
		t.Fatal(err)
	}
	u := mustParseURL(t, v.path)
	spans := []span{
		{kind: spanClient, id: 1, start: 0, end: 400 * us},
		{kind: spanFrontRun, id: 2, parent: 1, start: 100 * us, end: 300 * us, url: u},
		{kind: spanDoBatch, id: 3, start: 150 * us, end: 280 * us, conn: "a", items: 1, keys: []string{v.key}},
		{kind: spanReplicaBatch, id: 4, start: 200 * us, end: 230 * us, conn: "a"},
	}
	st := analyze(spans)
	for name, got := range map[string][2]float64{
		"outside":  {st.outside, 200e-6},
		"frontend": {st.frontSelf, 70e-6},
		"wire":     {st.wire, 100e-6},
		"replica":  {st.replicaSelf, 30e-6},
	} {
		if d := got[0] - got[1]; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s self time = %v, want %v", name, got[0], got[1])
		}
	}
}

func mustParseURL(t *testing.T, path string) *url.URL {
	t.Helper()
	u, err := url.Parse(path)
	if err != nil {
		t.Fatal(err)
	}
	return u
}
