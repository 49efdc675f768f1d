package main

// The topology under test: three replicas and one routing front-end in
// this process, each on its own 127.0.0.1:0 listener, wired from the
// same public constructors and defaults cmd/arch21d uses, so every
// request crosses real loopback sockets on both hops.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/sweep"
)

const replicas = 3

// runnerFunc replaces a replica's experiment runner (tests substitute a
// replica that perturbs results); nil keeps the core registry.
type runnerFunc func(ctx context.Context, id string, p core.Params) (core.Result, error)

type cluster struct {
	engines  []*serve.Engine
	addrs    []string
	rt       *router.Router
	frontend string
	tr       *tracer // nil: bare topology, no tracing hooks at all

	servers []*http.Server
	wg      sync.WaitGroup
}

// listen serves h on a fresh loopback listener with arch21d's server
// timeouts.
func (c *cluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadTimeout: 10 * time.Second, WriteTimeout: 5 * time.Minute}
	c.servers = append(c.servers, srv)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: server on %s: %v\n", ln.Addr(), err)
		}
	}()
	return ln.Addr().String(), nil
}

// boot brings the topology up. With a tracer, every mux is wrapped in
// the tracing middleware and every backend in the tracing decorator.
func boot(tr *tracer, runner runnerFunc) (*cluster, error) {
	c := &cluster{tr: tr}
	policy, err := serve.ParseEvictionPolicy("lru")
	if err != nil {
		return nil, err
	}
	backends := make([]router.Backend, 0, replicas)
	for i := 0; i < replicas; i++ {
		cfg := serve.Config{Shards: 16, Workers: 4, CachePolicy: policy}
		if runner != nil {
			cfg.RunnerWith = runner
		}
		eng := serve.NewEngine(cfg)
		c.engines = append(c.engines, eng)
		mux := http.NewServeMux()
		mux.Handle("/", eng.Handler())
		httpapi.Mount(mux, "POST /sweep", sweep.Handler(eng))
		var h http.Handler = mux
		if tr != nil {
			h = tr.handler(true, mux)
		}
		addr, err := c.listen(h)
		if err != nil {
			c.close()
			return nil, err
		}
		c.addrs = append(c.addrs, addr)
		hb := router.NewHTTPBackend(addr)
		if tr != nil {
			backends = append(backends, &tracedBackend{HTTPBackend: hb, t: tr})
		} else {
			backends = append(backends, hb)
		}
	}
	rt, err := router.New(backends, router.Config{})
	if err != nil {
		c.close()
		return nil, err
	}
	c.rt = rt
	mux := http.NewServeMux()
	mux.Handle("/", rt.Handler())
	httpapi.Mount(mux, "POST /sweep", sweep.Handler(rt))
	var h http.Handler = mux
	if tr != nil {
		h = tr.handler(false, mux)
	}
	if c.frontend, err = c.listen(h); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// close stops every server, waits for their accept loops, and closes the
// engines.
func (c *cluster) close() {
	for _, s := range c.servers {
		_ = s.Close() // the listener is ours; a close error leaves nothing to release
	}
	c.wg.Wait()
	for _, e := range c.engines {
		e.Close()
	}
}
