package main

// The benchmark's inputs: the warm interactive catalog, the seeded cold
// grid generators, and the oracle every answer is checked against. The
// oracle runs internal/core directly, never through the serving stack,
// so a serving layer that perturbs a result cannot also perturb the
// expectation.

import (
	"context"
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"repro/internal/core"
	"repro/internal/router"
)

// expect is what a correct answer for one (experiment, assignment) pair
// carries: the headline metric (nil when the experiment declares none)
// and the findings, both compared exactly.
type expect struct {
	headline *float64
	findings []string
}

func (e expect) matches(headline *float64, findings []string) bool {
	if (e.headline == nil) != (headline == nil) {
		return false
	}
	if e.headline != nil && *e.headline != *headline {
		return false
	}
	if len(e.findings) != len(findings) {
		return false
	}
	for i := range findings {
		if e.findings[i] != findings[i] {
			return false
		}
	}
	return true
}

// oracle computes the expected answer by running the experiment directly.
func oracle(id string, p core.Params) (expect, error) {
	exp, ok := core.ByID(id)
	if !ok {
		return expect{}, fmt.Errorf("oracle: unknown experiment %s", id)
	}
	res, _, err := exp.RunWith(context.Background(), p)
	if err != nil {
		return expect{}, fmt.Errorf("oracle: %s: %w", id, err)
	}
	return expect{headline: res.Headline, findings: res.Findings}, nil
}

// variant is one interactive request target: an experiment, its
// assignment, the URL path+query the client sends, the routing key the
// front-end places it under, and its expected answer.
type variant struct {
	id     string
	params core.Params
	path   string
	key    string
	want   expect
}

func newVariant(id string, assignments ...string) (variant, error) {
	p, err := core.ParseParams(assignments)
	if err != nil {
		return variant{}, err
	}
	path := "/v1/run/" + url.PathEscape(id)
	for i, a := range assignments {
		sep := "&"
		if i == 0 {
			sep = "?"
		}
		path += sep + "param=" + url.QueryEscape(a)
	}
	want, err := oracle(id, p)
	if err != nil {
		return variant{}, err
	}
	return variant{id: id, params: p, path: path, key: router.RouteKey(id, p), want: want}, nil
}

// catalogSpecs is the warm interactive catalog in Zipf rank order (rank
// 0 is drawn most often). Every variant is a microsecond-scale
// experiment, so warming the catalog is cheap and a warm request is pure
// serving-stack cost; the mix covers bare IDs, parameterized points
// (schema resolution on the routed path) and results with and without a
// declared headline.
var catalogSpecs = [][]string{
	{"E7", "f=0.9", "bces=1024"},
	{"E1"},
	{"E7"},
	{"E5", "operands=2"},
	{"E4"},
	{"E1", "gens=3"},
	{"E7", "f=0.99", "bces=64"},
	{"E10"},
	{"E6"},
	{"E5"},
	{"E14"},
	{"E16"},
	{"E17"},
	{"E18"},
	{"T1"},
	{"E2"},
}

// catalog builds the 16-variant warm catalog with its oracle.
func catalog() ([]variant, error) {
	out := make([]variant, 0, len(catalogSpecs))
	for _, spec := range catalogSpecs {
		v, err := newVariant(spec[0], spec[1:]...)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// zipf draws catalog ranks with P(k) proportional to (1+k)^-1.1.
func newZipf(seed int64, n int) *rand.Zipf {
	return rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, uint64(n-1))
}

// Cold E7 points. Sweeps and cold interactive requests draw f from
// disjoint ranges, each point a fresh value past a seeded offset, so
// every point is a compulsory miss without resetting any cache, and the
// two streams never share a point. bces comes from a fixed list, so
// the compute per point does not depend on the seed.
const (
	sweepFBase      = 0.5
	sweepFStep      = 1e-7
	interactiveBase = 0.95
	interactiveStep = 1e-8
	coldBCES        = 256
	sweepFValues    = 12
	samplesPerSweep = 8
)

var sweepBCES = []float64{16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072}

// sweepGrid is one generated cold sweep: its request body, grid size,
// and the oracle for a seeded sample of its point indices.
type sweepGrid struct {
	body   []byte
	points int
	sample map[int]expect
}

// sweepGen generates the seed's sequence of cold sweeps.
type sweepGen struct {
	seed   int64
	offset int64
}

func newSweepGen(seed int64) sweepGen {
	return sweepGen{seed: seed, offset: rand.New(rand.NewSource(seed ^ 0x5eed)).Int63n(1_000_000)}
}

// grid returns sweep k (deterministic in seed and k). f is the slow
// axis, bces the fast one, so point i is (fs[i/len(bces)], bces[i%len(bces)]).
func (g sweepGen) grid(k int) (sweepGrid, error) {
	fs := make([]float64, sweepFValues)
	fStrs := make([]string, sweepFValues)
	for j := range fs {
		fs[j] = sweepFBase + float64(g.offset+int64(k)*sweepFValues+int64(j))*sweepFStep
		fStrs[j] = core.FormatParamValue(fs[j])
	}
	bStrs := make([]string, len(sweepBCES))
	for j, b := range sweepBCES {
		bStrs[j] = core.FormatParamValue(b)
	}
	body := fmt.Sprintf(`{"id":"E7","params":["f=%s","bces=%s"]}`,
		strings.Join(fStrs, ","), strings.Join(bStrs, ","))
	n := len(fs) * len(sweepBCES)
	rng := rand.New(rand.NewSource(g.seed*7919 + int64(k)))
	sample := make(map[int]expect, samplesPerSweep)
	for len(sample) < samplesPerSweep {
		i := rng.Intn(n)
		if _, dup := sample[i]; dup {
			continue
		}
		want, err := oracle("E7", core.Params{"f": fs[i/len(sweepBCES)], "bces": sweepBCES[i%len(sweepBCES)]})
		if err != nil {
			return sweepGrid{}, err
		}
		sample[i] = want
	}
	return sweepGrid{body: []byte(body), points: n, sample: sample}, nil
}

// coldVariant returns the i-th never-seen interactive E7 point.
func coldVariant(seed int64, i int) (variant, error) {
	offset := rand.New(rand.NewSource(seed ^ 0xc01d)).Int63n(1_000_000)
	f := interactiveBase + float64(offset+int64(i))*interactiveStep
	return newVariant("E7", "f="+core.FormatParamValue(f), "bces="+core.FormatParamValue(coldBCES))
}
