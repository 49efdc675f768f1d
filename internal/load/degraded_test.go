package load

// Acceptance test for latency-aware routing (the degraded-replica
// scenario): a 3-replica cluster with one replica injected 25x slower
// must keep routed p99 within 2x of an all-healthy twin cluster measured
// in the same window — hedged
// backups and scoreboard demotion route around the straggler — while
// issuing zero duplicate executions (every hedge and demoted request is
// a cache hit on a pre-warmed sibling) and preserving each engine's
// per-class conservation law.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/serve"
)

// p99 returns the exact 99th percentile of the observed durations.
func p99(durations []time.Duration) time.Duration {
	s := append([]time.Duration(nil), durations...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(0.99*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s[idx]
}

// degradedCluster is one 3-replica routed cluster of the acceptance
// test: every replica sits behind a FaultBackend so its latency can be
// injected.
type degradedCluster struct {
	engines []*serve.Engine
	faults  []*router.FaultBackend
	rt      *router.Router
}

func newDegradedCluster(t *testing.T, replicas int, baseLatency time.Duration) *degradedCluster {
	t.Helper()
	c := &degradedCluster{
		engines: make([]*serve.Engine, replicas),
		faults:  make([]*router.FaultBackend, replicas),
	}
	backends := make([]router.Backend, replicas)
	for i := range c.engines {
		c.engines[i] = serve.NewEngine(serve.Config{Shards: 8, Workers: 4,
			RunnerWith: func(ctx context.Context, id string, p core.Params) (core.Result, error) {
				return core.Result{Findings: []string{"ok " + id}}, nil
			}})
		t.Cleanup(c.engines[i].Close)
		c.faults[i] = router.NewFaultBackend(router.NewEngineBackend(c.engines[i], fmt.Sprintf("engine[%d]", i)))
		c.faults[i].Degrade(baseLatency)
		backends[i] = c.faults[i]
	}
	rt, err := router.New(backends, router.Config{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	c.rt = rt
	return c
}

func (c *degradedCluster) executions() int64 {
	n := int64(0)
	for _, eng := range c.engines {
		n += eng.Executions()
	}
	return n
}

func TestDegradedReplicaHedgingHoldsP99(t *testing.T) {
	const (
		replicas    = 3
		keys        = 40
		baseLatency = 2 * time.Millisecond // every replica: an ms-scale baseline robust to scheduler noise
		slowLatency = 50 * time.Millisecond
	)
	// Two identical clusters: ctl stays healthy and supplies the
	// baseline, deg gets one replica degraded. The measured window
	// alternates between them request by request, so host noise (go test
	// runs other packages' binaries beside this one) lands on both
	// latency samples alike and the p99 comparison measures routing.
	ctl := newDegradedCluster(t, replicas, baseLatency)
	deg := newDegradedCluster(t, replicas, baseLatency)
	clusters := []*degradedCluster{ctl, deg}

	ids := make([]string, keys)
	for i := range ids {
		ids[i] = fmt.Sprintf("DK%d", i)
	}
	// Warm every key on EVERY engine directly (bypassing the router): a
	// hedged backup or demoted request landing on a non-owner must be a
	// cache hit, so the measured window can assert zero executions — the
	// "hedges never double-execute" criterion in its strongest form.
	for _, c := range clusters {
		for _, eng := range c.engines {
			for _, id := range ids {
				if _, err := eng.ServeWith(context.Background(), id, nil); err != nil {
					t.Fatalf("warm: %v", err)
				}
			}
		}
	}

	serve1 := func(c *degradedCluster, id string) time.Duration {
		t0 := time.Now()
		if _, err := c.rt.ServeWith(context.Background(), id, nil); err != nil {
			t.Fatalf("routed %s: %v", id, err)
		}
		return time.Since(t0)
	}
	pass := func(c *degradedCluster) {
		for _, id := range ids {
			serve1(c, id)
		}
	}

	// All-healthy passes warm both clusters' scoreboards past
	// hedgeWarmup.
	for i := 0; i < 8; i++ {
		pass(ctl)
		pass(deg)
	}

	// Degrade one replica. Settle passes give the hedging loop room to
	// observe the straggler (abandoned-attempt lower bounds push its
	// EWMA up) and the scoreboard room to demote it.
	deg.faults[0].Degrade(slowLatency)
	for i := 0; i < 4; i++ {
		pass(deg)
	}

	execBefore := ctl.executions() + deg.executions()
	hedgesBefore := deg.rt.Metrics().Hedges

	// 30 passes give 1200 samples a side, so p99 is the 12th-slowest
	// request. A demoted owner's canaries (1 in canaryEvery of its
	// traffic, each paying a hedge delay) are about half a percent of
	// the degraded window; with a few hundred samples the p99 sits on a
	// handful of requests and the comparison flips on scheduler noise.
	var base, degraded []time.Duration
	for i := 0; i < 30; i++ {
		for _, id := range ids {
			// Alternate which cluster goes first so neither one always
			// follows the other's request.
			if i%2 == 0 {
				base = append(base, serve1(ctl, id))
				degraded = append(degraded, serve1(deg, id))
			} else {
				degraded = append(degraded, serve1(deg, id))
				base = append(base, serve1(ctl, id))
			}
		}
	}
	p99Base, p99Deg := p99(base), p99(degraded)

	m := deg.rt.Metrics()
	t.Logf("p99 over %d requests each: healthy %v, degraded %v; %d hedges in the window",
		len(degraded), p99Base, p99Deg, m.Hedges-hedgesBefore)
	if hedges := m.Hedges - hedgesBefore; hedges == 0 && m.Hedges == 0 {
		t.Fatal("no hedges were ever issued against the degraded replica")
	}
	if p99Deg > 2*p99Base {
		t.Fatalf("degraded p99 %v exceeds 2x the healthy baseline p99 %v (hedging failed to contain the straggler)",
			p99Deg, p99Base)
	}
	if execAfter := ctl.executions() + deg.executions(); execAfter != execBefore {
		t.Fatalf("measured window executed %d experiments; every hedged or demoted request must be a warm cache hit",
			execAfter-execBefore)
	}
	// Conservation per engine per class: hedges are extra backend
	// attempts, and each one must still balance the books of whichever
	// engine absorbed it.
	for ci, c := range clusters {
		for i, eng := range c.engines {
			em := eng.Metrics()
			for class, cm := range em.Classes {
				sum := cm.CacheHits + cm.Deduped + cm.Sheds + cm.Executions
				if sum != cm.Requests {
					t.Fatalf("cluster %d engine[%d] class %s: hits %d + deduped %d + sheds %d + executions %d = %d != requests %d",
						ci, i, class, cm.CacheHits, cm.Deduped, cm.Sheds, cm.Executions, sum, cm.Requests)
				}
			}
		}
	}
}
