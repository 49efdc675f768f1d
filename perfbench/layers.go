package main

// Per-layer figures: counter snapshots at window boundaries, the
// sampled admission queues, and the span analysis of the traced window.

import (
	"bytes"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/stats"
)

// snapshot is every counter the per-layer metrics difference across a
// window: Router.Metrics(), each Engine.Metrics(), the front-end's and
// each replica's /metrics exposition, and the process's runtime.
type snapshot struct {
	rt         router.Metrics
	eng        []serve.Metrics
	front      map[string]float64
	replicas   []map[string]float64
	allocs     uint64
	gcPause    time.Duration
	heap       uint64
	goroutines int
}

// scrape renders a /metrics registry and indexes its samples by series.
func scrape(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	_ = reg.WriteText(&buf) // a bytes.Buffer write cannot fail
	out := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func takeSnapshot(c *cluster) snapshot {
	s := snapshot{rt: c.rt.Metrics(), front: scrape(c.rt.MetricsRegistry())}
	for _, e := range c.engines {
		s.eng = append(s.eng, e.Metrics())
		s.replicas = append(s.replicas, scrape(e.MetricsRegistry()))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.gcPause = time.Duration(ms.PauseTotalNs)
	s.heap = ms.HeapAlloc
	s.goroutines = runtime.NumGoroutine()
	s.allocs = heapAllocs()
	return s
}

// classTotals sums one request class's books across replicas.
func classTotals(s snapshot, class string) serve.ClassMetrics {
	var t serve.ClassMetrics
	for _, m := range s.eng {
		c := m.Classes[class]
		t.Requests += c.Requests
		t.CacheHits += c.CacheHits
		t.Deduped += c.Deduped
		t.Executions += c.Executions
		t.Sheds += c.Sheds
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// coldQuantile estimates a quantile of the replicas' engine-side cold
// latency for one class over the window, from the cumulative
// arch21_request_duration_seconds buckets (linear within a bucket).
func coldQuantile(a, b snapshot, class string, q float64) float64 {
	series := `arch21_request_duration_seconds_bucket{class="` + class + `",outcome="cold",le="`
	count := `arch21_request_duration_seconds_count{class="` + class + `",outcome="cold"}`
	bounds := stats.DefaultLatencyBuckets()
	cum := make([]float64, len(bounds)+1)
	for r := range b.replicas {
		for i, le := range bounds {
			k := series + strconv.FormatFloat(le, 'g', -1, 64) + `"}`
			cum[i] += b.replicas[r][k] - a.replicas[r][k]
		}
		cum[len(bounds)] += b.replicas[r][count] - a.replicas[r][count]
	}
	total := cum[len(bounds)]
	if total == 0 {
		return 0
	}
	target := q * total
	lo, below := 0.0, 0.0
	for i, le := range bounds {
		if cum[i] >= target {
			return lo + (le-lo)*ratio(target-below, cum[i]-below)
		}
		lo, below = le, cum[i]
	}
	return bounds[len(bounds)-1]
}

// queueSampler samples every replica's admission queues while a window
// runs.
type queueSampler struct {
	stop chan struct{}
	done chan struct{}

	mu             sync.Mutex
	batchSum       float64
	samples        int
	interactiveMax int
}

// queueSampleEvery bounds the sampler's cost: Engine.Metrics() snapshots
// every latency reservoir, so it is not free.
const queueSampleEvery = 50 * time.Millisecond

func sampleQueues(c *cluster) *queueSampler {
	q := &queueSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(q.done)
		t := time.NewTicker(queueSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-q.stop:
				return
			case <-t.C:
			}
			for _, e := range c.engines {
				st := e.Metrics().Scheduler
				q.mu.Lock()
				q.batchSum += float64(st.Classes["batch"].Queued)
				q.samples++
				if n := st.Classes["interactive"].Queued; n > q.interactiveMax {
					q.interactiveMax = n
				}
				q.mu.Unlock()
			}
		}
	}()
	return q
}

func (q *queueSampler) halt() (batchMean float64, interactiveMax int) {
	close(q.stop)
	<-q.done
	return ratio(q.batchSum, float64(q.samples)), q.interactiveMax
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Duration }

// covered is the length of the union of ivs clipped to within.
func covered(ivs []interval, within interval) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		lo, hi := max(iv.lo, within.lo), min(iv.hi, within.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end time.Duration
	end = math.MinInt64
	for _, iv := range clipped {
		if iv.lo > end {
			total += iv.hi - iv.lo
			end = iv.hi
		} else if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// spanStats is the analysis of one traced window.
type spanStats struct {
	clientMean, outside         float64 // s, per interactive request
	frontRun                    []float64
	frontSelf, replicaSelf      float64 // s, per interactive request
	sweepSelf                   float64 // s, per sweep
	doDur, batchDur, batchItems []float64
	wire                        float64 // s, per linked backend call
	replicaRun, replicaBatch    []float64
	linkedCalls, calls          int
}

// analyze joins the spans: client → front-end by the span header,
// front-end → backend call by context or, for coalesced frames, by
// routing key and time, and backend call → replica handler by the
// connection address. Self time is a span minus the union of its
// children within it.
func analyze(spans []span) spanStats {
	var st spanStats
	byConn := make(map[string][]*span)
	children := make(map[uint64][]*span)
	frontsByKey := make(map[string][]*span)
	var calls, fronts []*span
	clients := make(map[uint64]*span)
	var clientLat []float64
	for i := range spans {
		s := &spans[i]
		switch s.kind {
		case spanClient:
			clients[s.id] = s
			clientLat = append(clientLat, s.dur().Seconds())
		case spanReplicaRun, spanReplicaBatch, spanReplicaOther:
			byConn[s.conn] = append(byConn[s.conn], s)
			if s.kind == spanReplicaRun {
				st.replicaRun = append(st.replicaRun, s.dur().Seconds())
			} else if s.kind == spanReplicaBatch {
				st.replicaBatch = append(st.replicaBatch, s.dur().Seconds())
			}
		case spanFrontSweep:
			fronts = append(fronts, s)
		case spanFrontRun:
			fronts = append(fronts, s)
			st.frontRun = append(st.frontRun, s.dur().Seconds())
			k := frontKey(s.url)
			frontsByKey[k] = append(frontsByKey[k], s)
		case spanDo, spanDoBatch:
			calls = append(calls, s)
			if s.kind == spanDo {
				st.doDur = append(st.doDur, s.dur().Seconds())
			} else {
				st.batchDur = append(st.batchDur, s.dur().Seconds())
				st.batchItems = append(st.batchItems, float64(s.items))
			}
		}
	}
	for _, list := range frontsByKey {
		sort.Slice(list, func(i, j int) bool { return list[i].start < list[j].start })
	}
	for _, list := range byConn {
		sort.Slice(list, func(i, j int) bool { return list[i].start < list[j].start })
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].start < calls[j].start })

	replicaOf := make(map[*span]*span)
	served := make(map[*span]bool)
	next := make(map[string]int)
	var wire []float64
	for _, c := range calls {
		// The replica span a call caused: same connection, inside the call.
		list := byConn[c.conn]
		if j := sort.Search(len(list), func(j int) bool { return list[j].start >= c.start }); j < len(list) && list[j].end <= c.end {
			replicaOf[c] = list[j]
			wire = append(wire, (c.dur() - list[j].dur()).Seconds())
		}
		if c.parent != 0 {
			children[c.parent] = append(children[c.parent], c)
			continue
		}
		// A coalesced frame serves, per item, the earliest-started
		// front-end request for that key that encloses the frame and is
		// not yet served. Calls are visited by start time, so requests
		// that ended before this call can be skipped for good.
		for _, k := range c.keys {
			fs := frontsByKey[k]
			for next[k] < len(fs) && fs[next[k]].end < c.start {
				next[k]++
			}
			for _, f := range fs[next[k]:] {
				if f.start > c.start {
					break
				}
				if !served[f] && f.end >= c.end {
					served[f] = true
					children[f.id] = append(children[f.id], c)
					break
				}
			}
		}
	}
	st.calls, st.linkedCalls = len(calls), len(replicaOf)
	st.wire = mean(wire)

	var outside, self, rep, sweepSelf []float64
	for _, f := range fronts {
		in := interval{f.start, f.end}
		var callIvs, repIvs []interval
		for _, c := range children[f.id] {
			callIvs = append(callIvs, interval{c.start, c.end})
			if r := replicaOf[c]; r != nil {
				repIvs = append(repIvs, interval{r.start, r.end})
			}
		}
		cov := covered(callIvs, in)
		if f.kind == spanFrontSweep {
			sweepSelf = append(sweepSelf, (f.dur() - cov).Seconds())
			continue
		}
		self = append(self, (f.dur() - cov).Seconds())
		rep = append(rep, covered(repIvs, in).Seconds())
		if c := clients[f.parent]; c != nil {
			outside = append(outside, (c.dur() - f.dur()).Seconds())
		}
	}
	st.clientMean, st.outside = mean(clientLat), mean(outside)
	st.frontSelf, st.replicaSelf = mean(self), mean(rep)
	st.sweepSelf = mean(sweepSelf)
	return st
}
