package main

// The layer ladder: one warm key through each layer's public surface,
// from a bare slab Get up to the full routed HTTP request, every rung
// timed in the same interleaved loop. Each rung is one interface value
// over a fixed key and value shape, so rungs differ only by the layers
// they cross.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/serve"
)

// rung serves the ladder key once.
type rung interface {
	serve() error
}

type rungFunc func() error

func (f rungFunc) serve() error { return f() }

// ladderStep is one rung with its loop size and reporting scale.
type ladderStep struct {
	name  string
	r     rung
	batch int
	unit  string  // "ns" or "us"
	scale float64 // seconds → unit
	// perOp divides the batch's time for rungs that serve several items
	// per call.
	perOp int
}

type ladderResult struct {
	name   string
	unit   string
	value  float64
	allocs float64
}

const ladderRounds = 40

// runLadder times every rung. The in-process rungs get their own engine
// and router so the live topology's counters stay untouched; the HTTP
// rungs cross the live topology's sockets.
func runLadder(c *cluster, v *variant) ([]ladderResult, error) {
	ctx := context.Background()

	slab := serve.NewCache(16, 0)
	res, _, err := mustExp(v.id).RunWith(ctx, v.params)
	if err != nil {
		return nil, err
	}
	enc := res.Encode()
	slab.Set(v.key, enc)

	eng := serve.NewEngine(serve.Config{Shards: 16, Workers: 4})
	defer eng.Close()
	if _, err := eng.ServeEncoded(ctx, v.id, v.params); err != nil {
		return nil, err
	}
	var inproc []router.Backend
	var engines []*serve.Engine
	for i := 0; i < replicas; i++ {
		e := serve.NewEngine(serve.Config{Shards: 16, Workers: 4})
		defer e.Close()
		engines = append(engines, e)
		inproc = append(inproc, router.NewEngineBackend(e, fmt.Sprintf("engine[%d]", i)))
	}
	rt, err := router.New(inproc, router.Config{})
	if err != nil {
		return nil, err
	}
	owner := rt.Owner(v.key)
	hb := router.NewHTTPBackend(c.addrs[owner])
	items := make([]serve.BatchItem, 64)
	for i := range items {
		items[i] = serve.BatchItem{ID: v.id, Params: v.params}
	}
	front := newClient(c.frontend, nil)
	defer front.close()

	steps := []ladderStep{
		{name: "ladder.slab_get_ns", batch: 2000, unit: "ns", scale: 1e9, perOp: 1,
			r: rungFunc(func() error {
				if _, ok := slab.Get(v.key); !ok {
					return fmt.Errorf("slab miss")
				}
				return nil
			})},
		{name: "ladder.engine_warm_ns", batch: 2000, unit: "ns", scale: 1e9, perOp: 1,
			r: rungFunc(func() error {
				_, err := eng.ServeEncoded(ctx, v.id, v.params)
				return err
			})},
		{name: "ladder.router_inproc_ns", batch: 1000, unit: "ns", scale: 1e9, perOp: 1,
			r: rungFunc(func() error {
				_, err := rt.ServeEncoded(ctx, v.id, v.params)
				return err
			})},
		{name: "ladder.replica_http_us", batch: 40, unit: "us", scale: 1e6, perOp: 1,
			r: rungFunc(func() error {
				_, err := hb.Do(ctx, v.id, v.params)
				return err
			})},
		{name: "ladder.frontend_http_us", batch: 40, unit: "us", scale: 1e6, perOp: 1,
			r: rungFunc(func() error { return front.get(v, "") })},
		{name: "ladder.batch64_item_us", batch: 4, unit: "us", scale: 1e6, perOp: len(items),
			r: rungFunc(func() error {
				outs, err := hb.DoBatch(ctx, items)
				if err != nil {
					return err
				}
				for _, o := range outs {
					if o.Err != nil {
						return o.Err
					}
				}
				return nil
			})},
	}
	// Warm every rung (connections, scoreboards, lazy state) first.
	for _, s := range steps {
		for i := 0; i < 2*hedgeWarmupSamples; i++ {
			if err := s.r.serve(); err != nil {
				return nil, fmt.Errorf("%s: %w", s.name, err)
			}
		}
	}
	perOp := make([][]float64, len(steps))
	allocs := make([][]float64, len(steps))
	for round := 0; round < ladderRounds; round++ {
		for i, s := range steps {
			a0 := heapAllocs()
			t0 := time.Now()
			for j := 0; j < s.batch; j++ {
				if err := s.r.serve(); err != nil {
					return nil, fmt.Errorf("%s: %w", s.name, err)
				}
			}
			d := time.Since(t0)
			ops := float64(s.batch * s.perOp)
			perOp[i] = append(perOp[i], d.Seconds()*s.scale/ops)
			allocs[i] = append(allocs[i], float64(heapAllocs()-a0)/ops)
		}
	}
	out := make([]ladderResult, len(steps))
	for i, s := range steps {
		out[i] = ladderResult{name: s.name, unit: s.unit,
			value: quantile(perOp[i], 0.5), allocs: quantile(allocs[i], 0.5)}
	}
	return out, nil
}

// hedgeWarmupSamples is the router's scoreboard warm-up (16 samples per
// replica before it trusts a latency estimate); the benchmark warms
// every path past it before timing.
const hedgeWarmupSamples = 16

func mustExp(id string) core.Experiment {
	e, ok := core.ByID(id)
	if !ok {
		panic("perfbench: catalog names unknown experiment " + id)
	}
	return e
}

// nullClientCost is the client's own round trip against a handler that
// answers v's envelope without doing any work: the floor every routed
// latency sits on. Returns the median per-request time in seconds.
func nullClientCost(v *variant, envelope []byte) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(envelope)
	})}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed on Close below
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	c := newClient(ln.Addr().String(), nil)
	defer c.close()
	var lat []float64
	for round := 0; round < 20; round++ {
		t0 := time.Now()
		for i := 0; i < 100; i++ {
			if err := c.get(v, ""); err != nil {
				return 0, fmt.Errorf("null handler: %w", err)
			}
		}
		lat = append(lat, time.Since(t0).Seconds()/100)
	}
	return quantile(lat, 0.5), nil
}

// execCost is the direct RunWith cost of a sample of the workload's
// executed points, the compute floor under the serving stack.
func execCost(points []variant) (float64, error) {
	var lat []float64
	for round := 0; round < 5; round++ {
		t0 := time.Now()
		for i := range points {
			if _, _, err := mustExp(points[i].id).RunWith(context.Background(), points[i].params); err != nil {
				return 0, err
			}
		}
		lat = append(lat, time.Since(t0).Seconds()/float64(len(points)))
	}
	return quantile(lat, 0.5), nil
}
