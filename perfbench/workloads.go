package main

// Load generation: the three named workloads, their generators, and the
// measurement windows they record into.

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one named traffic mix.
type workload struct {
	name string
	// closed is the number of closed-loop interactive clients.
	closed int
	// openRate is the Poisson rate (req/s) of the open-loop interactive
	// connection; 0 means none.
	openRate float64
	// coldEvery makes 1 in coldEvery open-loop requests a never-seen E7
	// point.
	coldEvery int
	// deadline is sent as X-Arch21-Deadline-MS on open-loop requests.
	deadline string
	// sweeps runs one connection of back-to-back cold sweeps.
	sweeps bool
}

// Why each workload exists: interactive-routed isolates the warm routed
// path (both hops, slab hits, no execution); sweep-cold isolates the
// batch data plane (fan-out, /v1/batch frames, admission, execution,
// slab writes); colocated runs both at once, the only mix that
// exercises admission priority and the hedged single-request path.
var workloads = []workload{
	{name: "interactive-routed", closed: 2},
	{name: "sweep-cold", sweeps: true},
	{name: "colocated", openRate: 400, coldEvery: 20, deadline: "1000", sweeps: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// interactive reports whether the workload has an interactive stream,
// which then carries its latency metrics.
func (w workload) interactive() bool { return w.closed > 0 || w.openRate > 0 }

// window records one measurement interval. Samples are attributed to
// the window by completion time; counts are also kept per second so
// rates can be reported as per-second medians.
type window struct {
	start time.Time
	secs  int

	mu       sync.Mutex
	inter    []float64 // interactive latency, s
	lags     []float64 // open-loop send lag, s
	sweeps   []float64 // sweep wall time, s
	interOps []int64   // completed interactive requests per second
	points   []int64   // streamed sweep points per second
	cpu      []float64 // process CPU per second, s
}

func newWindow(secs int) *window {
	return &window{secs: secs, interOps: make([]int64, secs), points: make([]int64, secs),
		cpu: make([]float64, secs)}
}

func (w *window) second(t time.Time) int {
	i := int(t.Sub(w.start) / time.Second)
	if i < 0 || i >= w.secs {
		return -1
	}
	return i
}

// cpuTime is the process's user+system CPU time.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// loadGen runs a workload's generators against a cluster until stopped.
// Its inputs are built before the cluster exists; c is set once the
// measured topology is up.
type loadGen struct {
	w    workload
	c    *cluster
	cat  []variant
	seed int64

	cur  atomic.Pointer[window]
	stop atomic.Bool
	wg   sync.WaitGroup

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	errs              []string

	// pointsIssued counts the distinct cold grid points sent in sweeps;
	// every one must execute exactly once as batch work.
	pointsIssued atomic.Int64

	schedule []arrival
	sweepGen sweepGen
	grids    []sweepGrid
	clients  []*client
}

// arrival is one open-loop request: when it is due after the stream
// starts, and what it asks for.
type arrival struct {
	at   time.Duration
	v    *variant
	cold bool
}

// newLoadGen prepares every input before anything is timed: the
// open-loop schedule over horizon with the oracle of each cold point,
// and presweeps cold sweeps with the oracle of their sampled points.
func newLoadGen(w workload, cat []variant, seed int64, horizon time.Duration, presweeps int) (*loadGen, error) {
	g := &loadGen{w: w, cat: cat, seed: seed, sweepGen: newSweepGen(seed)}
	if w.openRate > 0 {
		rng := rand.New(rand.NewSource(seed*31 + 7))
		zipf := newZipf(seed*31+8, len(cat))
		var at time.Duration
		for cold := 0; at < horizon; {
			at += time.Duration(rng.ExpFloat64() / w.openRate * float64(time.Second))
			a := arrival{at: at, v: &cat[zipf.Uint64()]}
			if w.coldEvery > 0 && rng.Intn(w.coldEvery) == 0 {
				cv, err := coldVariant(seed, cold)
				if err != nil {
					return nil, err
				}
				cold++
				a.v, a.cold = &cv, true
			}
			g.schedule = append(g.schedule, a)
		}
	}
	if w.sweeps {
		for k := 0; k < presweeps; k++ {
			sg, err := g.sweepGen.grid(k)
			if err != nil {
				return nil, err
			}
			g.grids = append(g.grids, sg)
		}
	}
	return g, nil
}

func (g *loadGen) fail(err error) {
	g.failed.Add(1)
	g.errMu.Lock()
	if len(g.errs) < 5 {
		g.errs = append(g.errs, err.Error())
	}
	g.errMu.Unlock()
}

// finish books one completed operation.
func (g *loadGen) finish(err error) bool {
	g.attempted.Add(1)
	if err != nil {
		g.fail(err)
		return false
	}
	return true
}

func (g *loadGen) newClient() *client {
	c := newClient(g.c.frontend, g.c.tr)
	g.clients = append(g.clients, c)
	return c
}

// start launches the generators.
func (g *loadGen) start() {
	for i := 0; i < g.w.closed; i++ {
		c := g.newClient()
		zipf := newZipf(g.seed*131+int64(i), len(g.cat))
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			for !g.stop.Load() {
				v := &g.cat[zipf.Uint64()]
				t0 := time.Now()
				err := c.get(v, "")
				if g.finish(err) {
					g.recordInteractive(t0, 0)
				}
			}
		}()
	}
	if g.w.openRate > 0 {
		c := g.newClient()
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.openLoop(c)
		}()
	}
	if g.w.sweeps {
		c := g.newClient()
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			g.sweepLoop(c)
		}()
	}
}

// openLoop sends each arrival when due, on one connection, timing every
// request from its due time so a stall also charges the requests queued
// behind it.
func (g *loadGen) openLoop(c *client) {
	t0 := time.Now()
	for i := range g.schedule {
		if g.stop.Load() {
			return
		}
		a := &g.schedule[i]
		due := t0.Add(a.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(due)
		err := c.get(a.v, g.w.deadline)
		if g.finish(err) {
			g.recordInteractive(due, lag)
		}
	}
	g.fail(fmt.Errorf("open-loop schedule exhausted after %d requests", len(g.schedule)))
}

func (g *loadGen) sweepLoop(c *client) {
	onPoint := func() {
		w := g.cur.Load()
		if w == nil {
			return
		}
		if i := w.second(time.Now()); i >= 0 {
			w.mu.Lock()
			w.points[i]++
			w.mu.Unlock()
		}
	}
	for k := 0; !g.stop.Load(); k++ {
		if k == len(g.grids) {
			sg, err := g.sweepGen.grid(k)
			if err != nil {
				g.fail(err)
				return
			}
			g.grids = append(g.grids, sg)
		}
		sg := &g.grids[k]
		g.pointsIssued.Add(int64(sg.points))
		t0 := time.Now()
		err := c.sweep(sg, onPoint)
		if !g.finish(err) {
			continue
		}
		now := time.Now()
		if w := g.cur.Load(); w != nil && w.second(now) >= 0 {
			w.mu.Lock()
			w.sweeps = append(w.sweeps, now.Sub(t0).Seconds())
			w.mu.Unlock()
		}
	}
}

func (g *loadGen) recordInteractive(from time.Time, lag time.Duration) {
	w := g.cur.Load()
	if w == nil {
		return
	}
	now := time.Now()
	i := w.second(now)
	if i < 0 {
		return
	}
	w.mu.Lock()
	w.inter = append(w.inter, now.Sub(from).Seconds())
	w.interOps[i]++
	if g.w.openRate > 0 {
		w.lags = append(w.lags, lag.Seconds())
	}
	w.mu.Unlock()
}

// measure records one window of secs seconds, sampling process CPU at
// every second boundary.
func (g *loadGen) measure(secs int) *window {
	w := newWindow(secs)
	prev := cpuTime()
	w.start = time.Now()
	g.cur.Store(w)
	for i := 0; i < secs; i++ {
		time.Sleep(time.Until(w.start.Add(time.Duration(i+1) * time.Second)))
		now := cpuTime()
		w.cpu[i] = now - prev
		prev = now
	}
	g.cur.Store(nil)
	return w
}

// halt stops the generators and waits for them.
func (g *loadGen) halt() {
	g.stop.Store(true)
	g.wg.Wait()
	for _, c := range g.clients {
		c.close()
	}
}

// quantile returns the q-quantile of xs (nearest rank on a sorted copy);
// 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)-1) + 0.5)
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// e2e holds one window's end-to-end figures.
type e2e struct {
	opsPerS  float64 // per-second median of the closed-loop stream's ops
	p50, p99 float64 // latency stream, s
	samples  int     // latency samples
	cpuPerOp float64 // per-second median of CPU per completed request or point, s
	interRPS float64 // pooled
	pointsPS float64 // pooled
	sweepP50 float64 // s
	sweepsN  int
}

func (w *window) e2e(wl workload) e2e {
	w.mu.Lock()
	defer w.mu.Unlock()
	var r e2e
	var rates, cpus []float64
	var inter, points int64
	for i := 0; i < w.secs; i++ {
		inter += w.interOps[i]
		points += w.points[i]
		if wl.closed > 0 {
			rates = append(rates, float64(w.interOps[i]))
		} else {
			rates = append(rates, float64(w.points[i]))
		}
		if ops := w.interOps[i] + w.points[i]; ops > 0 {
			cpus = append(cpus, w.cpu[i]/float64(ops))
		}
	}
	r.opsPerS = quantile(rates, 0.5)
	r.cpuPerOp = quantile(cpus, 0.5)
	lat := w.sweeps
	if wl.interactive() {
		lat = w.inter
	}
	r.p50, r.p99, r.samples = quantile(lat, 0.5), quantile(lat, 0.99), len(lat)
	r.interRPS = float64(inter) / float64(w.secs)
	r.pointsPS = float64(points) / float64(w.secs)
	r.sweepP50, r.sweepsN = quantile(w.sweeps, 0.5), len(w.sweeps)
	return r
}
