// Command perfbench is the repository's end-to-end benchmark. It boots
// the cluster the way arch21d deploys it — three replicas behind one
// routing front-end, all in this process on loopback sockets — drives
// one named workload over real HTTP, checks every answer against an
// oracle computed by running internal/core directly, and prints the
// metrics as one JSON object on its last line of output.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload interactive-routed --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of one untraced
// window. With --trace 1 it runs an untraced window and then a traced
// one on the same topology, and reports the per-layer metrics: span
// self times, counters, the layer ladder, and the tracing overhead.
// See perfbench/README.md for what each metric is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the cluster sees. The latency
// stream is the interactive one where the workload has it, else the
// sweep requests; the throughput stream is the closed-loop one.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "op/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"cpu_us_per_op", "us", "lower"},
}

// perLayer are the traced run's metrics, by layer.
var perLayer = []metricDef{
	{"client.null_us", "us", "lower"},
	{"client.lag_p99_ms", "ms", "lower"},
	{"client.outside_us", "us", "lower"},
	{"client.mean_us", "us", "lower"},
	{"frontend.run_p50_us", "us", "lower"},
	{"frontend.run_p99_us", "us", "lower"},
	{"frontend.self_us", "us", "lower"},
	{"frontend.sweep_self_ms", "ms", "lower"},
	{"router.do_calls_per_op", "calls/op", "lower"},
	{"router.dobatch_calls_per_op", "calls/op", "lower"},
	{"router.do_p50_us", "us", "lower"},
	{"router.dobatch_p50_us", "us", "lower"},
	{"router.dobatch_p99_us", "us", "lower"},
	{"router.dobatch_items_mean", "items", "higher"},
	{"router.wire_us", "us", "lower"},
	{"router.hedges", "count", "lower"},
	{"router.hedge_win_ratio", "ratio", "higher"},
	{"router.failovers", "count", "lower"},
	{"router.flushes_full", "count", "higher"},
	{"router.flushes_window", "count", "lower"},
	{"router.flushes_interactive", "count", "lower"},
	{"router.flushes_direct", "count", "lower"},
	{"router.batch_size_mean", "items", "higher"},
	{"replica.run_p50_us", "us", "lower"},
	{"replica.batch_p50_us", "us", "lower"},
	{"replica.batch_p99_us", "us", "lower"},
	{"replica.self_us", "us", "lower"},
	{"serve.hit_ratio.interactive", "ratio", "higher"},
	{"serve.hit_ratio.batch", "ratio", "higher"},
	{"serve.dedup_ratio", "ratio", "higher"},
	{"serve.executions_per_op", "execs/op", "lower"},
	{"serve.cold_p50_ms.interactive", "ms", "lower"},
	{"serve.cold_p99_ms.interactive", "ms", "lower"},
	{"serve.cold_p50_ms.batch", "ms", "lower"},
	{"serve.cache_mb", "MB", "lower"},
	{"admit.queued_batch_mean", "items", "lower"},
	{"admit.queued_interactive_max", "items", "lower"},
	{"admit.sheds", "count", "lower"},
	{"core.exec_us", "us", "lower"},
	{"ladder.slab_get_ns", "ns", "lower"},
	{"ladder.slab_get_ns.allocs", "allocs/op", "lower"},
	{"ladder.engine_warm_ns", "ns", "lower"},
	{"ladder.engine_warm_ns.allocs", "allocs/op", "lower"},
	{"ladder.router_inproc_ns", "ns", "lower"},
	{"ladder.router_inproc_ns.allocs", "allocs/op", "lower"},
	{"ladder.replica_http_us", "us", "lower"},
	{"ladder.replica_http_us.allocs", "allocs/op", "lower"},
	{"ladder.frontend_http_us", "us", "lower"},
	{"ladder.frontend_http_us.allocs", "allocs/op", "lower"},
	{"ladder.batch64_item_us", "us", "lower"},
	{"ladder.batch64_item_us.allocs", "allocs/op", "lower"},
	{"runtime.allocs_per_op", "allocs/op", "lower"},
	{"runtime.gc_pause_total_ms", "ms", "lower"},
	{"runtime.heap_end_mb", "MB", "lower"},
	{"runtime.goroutines_end", "count", "lower"},
	{"runtime.gomaxprocs", "count", "higher"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.sum_gap_pct", "%", "lower"},
	{"trace.linked_calls_ratio", "ratio", "higher"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	wname := flag.String("workload", "", "workload: interactive-routed, sweep-cold or colocated")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of each measurement window, s")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	if _, ok := workloadByName(*wname); !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload interactive-routed|sweep-cold|colocated, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	res, err := run(options{workload: *wname, seed: *seed, seconds: *seconds, trace: *trace == 1, report: os.Stdout})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	report   io.Writer
	// runner replaces the replicas' experiment runner (tests only).
	runner runnerFunc
}

const (
	// setupRuns is how many times setup is timed; setup_s is the median
	// and the last topology is the one measured.
	setupRuns = 15
	// warmup runs the workload untimed before the first window: the
	// router's scoreboards pass their warm-up count (interactive
	// requests coalesce only then), connections are pooled and the
	// routing memo fills.
	warmup = 4 * time.Second
	// presweeps is how many cold sweeps are generated, with their
	// oracle, before anything is timed; a run that outpaces it
	// generates the rest as it goes.
	presweeps = 2000
)

// warm fetches every catalog variant once through the front-end,
// checking each answer.
func warm(c *cluster, cat []variant, g *loadGen) {
	cl := newClient(c.frontend, nil)
	defer cl.close()
	for i := range cat {
		g.finish(cl.get(&cat[i], ""))
	}
}

func run(o options) (result, error) {
	wl, ok := workloadByName(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	cat, err := catalog()
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(o.report, "workload %s seed %d seconds %d trace %v gomaxprocs %d nproc %d\n",
		wl.name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	// A traced run splits its time between an untraced and a traced
	// window on the same topology, so it takes as long as an untraced
	// run and the two windows differ only by the recording.
	secs := []int{o.seconds}
	if o.trace {
		secs = []int{max(1, o.seconds/2), max(1, o.seconds-o.seconds/2)}
	}
	horizon := warmup + time.Duration(o.seconds+2)*time.Second + 10*time.Second
	// Every input and its oracle exist before setup is timed.
	g, err := newLoadGen(wl, cat, o.seed, horizon, presweeps)
	if err != nil {
		return result{}, err
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		// Start every set-up from a collected heap, so garbage left by
		// the oracle or the previous set-up is not charged to this one.
		runtime.GC()
		t0 := time.Now()
		c, err := boot(tr, o.runner)
		if err != nil {
			return result{}, err
		}
		warm(c, cat, g)
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			c.close()
		} else {
			g.c = c
		}
	}
	c := g.c
	defer c.close()

	g.start()
	time.Sleep(warmup)
	wU := g.measure(secs[0])
	var wT *window
	var spans []span
	var before, after snapshot
	var qBatch float64
	var qInter int
	if o.trace {
		before = takeSnapshot(c)
		q := sampleQueues(c)
		tr.on.Store(true)
		wT = g.measure(secs[1])
		tr.on.Store(false)
		qBatch, qInter = q.halt()
		after = takeSnapshot(c)
	}
	g.halt()
	if tr != nil {
		spans = tr.take()
		out := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.ndjson", wl.name, o.seed))
		if err := writeSpans(out, spans); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(o.report, "spans %d written to %s\n", len(spans), out)
	}
	for _, err := range checkInvariants(c, g.pointsIssued.Load()) {
		g.fail(err)
	}

	u := wU.e2e(wl)
	res := result{Metrics: map[string]metricValue{}}
	w := o.report
	printReport(w, wl, u, quantile(setups, 0.5), g.attempted.Load(), g.failed.Load())

	if !o.trace {
		for name, v := range map[string]float64{
			"setup_s":       quantile(setups, 0.5),
			"ops_per_s":     u.opsPerS,
			"p50_ms":        u.p50 * 1e3,
			"p99_ms":        u.p99 * 1e3,
			"cpu_us_per_op": u.cpuPerOp * 1e6,
		} {
			res.Metrics[name] = metricValue{Value: v, Unit: unitOf(endToEnd, name)}
		}
	} else {
		vals, err := layerMetrics(c, wl, g, cat, wT, u, before, after, spans, qBatch, qInter)
		if err != nil {
			return result{}, err
		}
		for name, v := range vals {
			res.Metrics[name] = metricValue{Value: v, Unit: unitOf(perLayer, name)}
		}
	}
	g.errMu.Lock()
	for _, e := range g.errs {
		fmt.Fprintf(w, "failure: %s\n", e)
	}
	g.errMu.Unlock()
	res.Attempted, res.Failed = g.attempted.Load(), g.failed.Load()
	res.Correct = res.Failed == 0
	return res, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// printReport prints the workload's figures under the names its
// streams carry, each with its unit and sample count.
func printReport(w io.Writer, wl workload, u e2e, setup float64, attempted, failed int64) {
	fmt.Fprintf(w, "setup_s %.4f s\n", setup)
	if wl.interactive() {
		fmt.Fprintf(w, "interactive_rps %.1f req/s\n", u.interRPS)
		fmt.Fprintf(w, "interactive_p50_ms %.4f ms (n=%d)\n", u.p50*1e3, u.samples)
		fmt.Fprintf(w, "interactive_p99_ms %.4f ms (n=%d)\n", u.p99*1e3, u.samples)
	}
	if wl.sweeps {
		fmt.Fprintf(w, "sweep_points_per_s %.1f points/s\n", u.pointsPS)
		fmt.Fprintf(w, "sweep_p50_s %.5f s (n=%d)\n", u.sweepP50, u.sweepsN)
	}
	fmt.Fprintf(w, "cpu_us_per_op %.2f us\n", u.cpuPerOp*1e6)
	fmt.Fprintf(w, "error_rate %.6f ratio (%d of %d)\n", ratio(float64(failed), float64(attempted)), failed, attempted)
}

// checkInvariants waits for the replicas to go quiet, then checks the
// per-class conservation law on every replica and that every cold sweep
// point executed exactly once as batch work.
func checkInvariants(c *cluster, pointsIssued int64) []error {
	var errs []error
	deadline := time.Now().Add(5 * time.Second)
	for {
		errs = errs[:0]
		var batchExec int64
		for i, e := range c.engines {
			m := e.Metrics()
			for class, cm := range m.Classes {
				if got := cm.CacheHits + cm.Deduped + cm.Sheds + cm.Executions; got != cm.Requests {
					errs = append(errs, fmt.Errorf("replica %d %s: hits+deduped+sheds+executions = %d, requests = %d",
						i, class, got, cm.Requests))
				}
			}
			batchExec += m.Classes["batch"].Executions
		}
		if batchExec != pointsIssued {
			errs = append(errs, fmt.Errorf("batch executions %d != distinct cold points issued %d", batchExec, pointsIssued))
		}
		if len(errs) == 0 || time.Now().After(deadline) {
			return errs
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// frontEnvelope fetches v's raw /run envelope from the front-end, the
// body the null handler replays.
func frontEnvelope(c *cluster, v *variant) ([]byte, error) {
	resp, err := http.Get("http://" + c.frontend + v.path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", v.path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// execSample lists points the workload executes: cold sweep and cold
// interactive points where it has them, else the warm catalog.
func execSample(wl workload, g *loadGen, cat []variant) ([]variant, error) {
	var out []variant
	if wl.sweeps {
		for i := 0; i < 64; i++ {
			f := sweepFBase + float64(g.sweepGen.offset+int64(i/len(sweepBCES)))*sweepFStep
			v, err := newVariant("E7", "f="+core.FormatParamValue(f),
				"bces="+core.FormatParamValue(sweepBCES[i%len(sweepBCES)]))
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	for _, a := range g.schedule {
		if len(out) >= 128 {
			break
		}
		if a.cold {
			out = append(out, *a.v)
		}
	}
	if len(out) == 0 {
		out = cat
	}
	return out, nil
}

var errNoSpans = errors.New("traced window recorded no spans")

// layerMetrics assembles the per-layer metrics of a traced run.
func layerMetrics(c *cluster, wl workload, g *loadGen, cat []variant, wT *window, u e2e,
	before, after snapshot, spans []span, qBatch float64, qInter int) (map[string]float64, error) {
	if len(spans) == 0 {
		return nil, errNoSpans
	}
	t := wT.e2e(wl)
	st := analyze(spans)
	m := map[string]float64{}

	wT.mu.Lock()
	ops := float64(0)
	for i := 0; i < wT.secs; i++ {
		ops += float64(wT.interOps[i] + wT.points[i])
	}
	lagP99 := quantile(wT.lags, 0.99)
	wT.mu.Unlock()

	m["client.lag_p99_ms"] = lagP99 * 1e3
	m["client.outside_us"] = st.outside * 1e6
	m["client.mean_us"] = st.clientMean * 1e6
	m["frontend.run_p50_us"] = quantile(st.frontRun, 0.5) * 1e6
	m["frontend.run_p99_us"] = quantile(st.frontRun, 0.99) * 1e6
	m["frontend.self_us"] = st.frontSelf * 1e6
	m["frontend.sweep_self_ms"] = st.sweepSelf * 1e3
	m["router.do_calls_per_op"] = ratio(float64(len(st.doDur)), ops)
	m["router.dobatch_calls_per_op"] = ratio(float64(len(st.batchDur)), ops)
	m["router.do_p50_us"] = quantile(st.doDur, 0.5) * 1e6
	m["router.dobatch_p50_us"] = quantile(st.batchDur, 0.5) * 1e6
	m["router.dobatch_p99_us"] = quantile(st.batchDur, 0.99) * 1e6
	m["router.dobatch_items_mean"] = mean(st.batchItems)
	m["router.wire_us"] = st.wire * 1e6
	hedges := float64(after.rt.Hedges - before.rt.Hedges)
	m["router.hedges"] = hedges
	m["router.hedge_win_ratio"] = ratio(float64(after.rt.HedgeWins-before.rt.HedgeWins), hedges)
	m["router.failovers"] = float64(after.rt.Failovers - before.rt.Failovers)
	for _, reason := range []string{"full", "window", "interactive", "direct"} {
		k := `arch21_batch_flushes_total{reason="` + reason + `"}`
		m["router.flushes_"+reason] = after.front[k] - before.front[k]
	}
	m["router.batch_size_mean"] = ratio(after.front["arch21_batch_size_sum"]-before.front["arch21_batch_size_sum"],
		after.front["arch21_batch_size_count"]-before.front["arch21_batch_size_count"])
	m["replica.run_p50_us"] = quantile(st.replicaRun, 0.5) * 1e6
	m["replica.batch_p50_us"] = quantile(st.replicaBatch, 0.5) * 1e6
	m["replica.batch_p99_us"] = quantile(st.replicaBatch, 0.99) * 1e6
	m["replica.self_us"] = st.replicaSelf * 1e6

	ia, ib := classTotals(before, "interactive"), classTotals(after, "interactive")
	ba, bb := classTotals(before, "batch"), classTotals(after, "batch")
	m["serve.hit_ratio.interactive"] = ratio(float64(ib.CacheHits-ia.CacheHits), float64(ib.Requests-ia.Requests))
	m["serve.hit_ratio.batch"] = ratio(float64(bb.CacheHits-ba.CacheHits), float64(bb.Requests-ba.Requests))
	m["serve.dedup_ratio"] = ratio(float64(ib.Deduped-ia.Deduped+bb.Deduped-ba.Deduped),
		float64(ib.Requests-ia.Requests+bb.Requests-ba.Requests))
	m["serve.executions_per_op"] = ratio(float64(ib.Executions-ia.Executions+bb.Executions-ba.Executions), ops)
	m["serve.cold_p50_ms.interactive"] = coldQuantile(before, after, "interactive", 0.5) * 1e3
	m["serve.cold_p99_ms.interactive"] = coldQuantile(before, after, "interactive", 0.99) * 1e3
	m["serve.cold_p50_ms.batch"] = coldQuantile(before, after, "batch", 0.5) * 1e3
	var cacheBytes int64
	for _, e := range after.eng {
		cacheBytes += e.Cache.Bytes
	}
	m["serve.cache_mb"] = float64(cacheBytes) / (1 << 20)
	m["admit.queued_batch_mean"] = qBatch
	m["admit.queued_interactive_max"] = float64(qInter)
	m["admit.sheds"] = float64(ib.Sheds - ia.Sheds + bb.Sheds - ba.Sheds)

	m["runtime.allocs_per_op"] = ratio(float64(after.allocs-before.allocs), ops)
	m["runtime.gc_pause_total_ms"] = (after.gcPause - before.gcPause).Seconds() * 1e3
	m["runtime.heap_end_mb"] = float64(after.heap) / (1 << 20)
	m["runtime.goroutines_end"] = float64(after.goroutines)
	m["runtime.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))

	m["trace.overhead_pct"] = 100 * (ratio(t.p50, u.p50) - 1)
	m["trace.sum_gap_pct"] = 100 * ratio(st.outside+st.frontSelf+st.wire+st.replicaSelf-st.clientMean, st.clientMean)
	m["trace.linked_calls_ratio"] = ratio(float64(st.linkedCalls), float64(st.calls))

	// Probes on the now idle topology.
	env, err := frontEnvelope(c, &cat[0])
	if err != nil {
		return nil, err
	}
	null, err := nullClientCost(&cat[0], env)
	if err != nil {
		return nil, err
	}
	m["client.null_us"] = null * 1e6
	sample, err := execSample(wl, g, cat)
	if err != nil {
		return nil, err
	}
	exec, err := execCost(sample)
	if err != nil {
		return nil, err
	}
	m["core.exec_us"] = exec * 1e6
	rungs, err := runLadder(c, &cat[0])
	if err != nil {
		return nil, err
	}
	for _, r := range rungs {
		m[r.name] = r.value
		m[r.name+".allocs"] = r.allocs
	}
	return m, nil
}
