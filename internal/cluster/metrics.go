package cluster

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Process-wide live metrics, published by every worker in this process at
// each probe ack (delta-encoded). Registered under expvar, which also
// exposes them on /debug/vars wherever an HTTP server is running;
// MetricsHandler serves the same counters as a plain-text /metrics
// endpoint, so the multi-container CI topology can assert a worker is
// making progress mid-run with one wget. In-process runs publish too — the counters are process-global
// by design (a podsd worker process hosts exactly one worker at a time, and
// a test binary's totals are still meaningful as totals).
var (
	mInstrs = expvar.NewInt("pods_instrs_total")
	mMsgs   = expvar.NewInt("pods_msgs_total")
	mAcks   = expvar.NewInt("pods_acks_total")
	mSteals = expvar.NewInt("pods_steals_total")
	mHits   = expvar.NewInt("pods_cache_hits_total")
	mMisses = expvar.NewInt("pods_cache_misses_total")
	mEvicts = expvar.NewInt("pods_evictions_total")

	mPrefetches   = expvar.NewInt("pods_prefetches_total")
	mPrefetchHits = expvar.NewInt("pods_prefetch_hits_total")

	// Job-service counters, maintained by Fleet.Submit: jobs running now,
	// jobs ever admitted, and jobs bounced by admission control.
	mJobsActive   = expvar.NewInt("pods_jobs_active")
	mJobsTotal    = expvar.NewInt("pods_jobs_total")
	mJobsRejected = expvar.NewInt("pods_jobs_rejected_total")
)

// Counters are one worker's cumulative counters as of a probe answer. A
// worker fills them in worker.counters; a new counter is a field here, its
// entry in counterFields, and its line there.
type Counters struct {
	MsgsSent      int64 // worker-to-worker data messages sent
	MsgsRecv      int64 // worker-to-worker data messages received
	DeferredReads int64 // I-structure reads queued on absent elements
	CacheHits     int64 // remote reads satisfied from the page cache
	CacheMisses   int64 // remote reads that sent a page request
	ReadJoins     int64 // remote reads that waited on a page already requested
	Steals        int64 // SP instances migrated in by work stealing
	Forwards      int64 // tokens relayed through forwarding stubs
	Instrs        int64 // instructions executed
	Evictions     int64 // cached pages evicted by the cache bound (Config.CachePages)
	Refetches     int64 // previously evicted pages fetched again
	Prefetches    int64 // pages requested ahead of the miss (Config.Heat)
	PrefetchHits  int64 // prefetched pages that later served a demand read
	CacheCapNow   int64 // current resident-page budget (adaptive cap); Stats sums it over PEs
}

// counterFields lists every Counters field once, in wire order, with the
// process-wide expvar total it feeds (nil: none). The KAck codec, the
// driver's sums and publishMetrics all walk it.
var counterFields = [...]struct {
	get    func(*Counters) *int64
	metric *expvar.Int
}{
	{func(c *Counters) *int64 { return &c.MsgsSent }, mMsgs},
	{func(c *Counters) *int64 { return &c.MsgsRecv }, mMsgs},
	{func(c *Counters) *int64 { return &c.DeferredReads }, nil},
	{func(c *Counters) *int64 { return &c.CacheHits }, mHits},
	{func(c *Counters) *int64 { return &c.CacheMisses }, mMisses},
	{func(c *Counters) *int64 { return &c.ReadJoins }, nil},
	{func(c *Counters) *int64 { return &c.Steals }, mSteals},
	{func(c *Counters) *int64 { return &c.Forwards }, nil},
	{func(c *Counters) *int64 { return &c.Instrs }, mInstrs},
	{func(c *Counters) *int64 { return &c.Evictions }, mEvicts},
	{func(c *Counters) *int64 { return &c.Refetches }, nil},
	{func(c *Counters) *int64 { return &c.Prefetches }, mPrefetches},
	{func(c *Counters) *int64 { return &c.PrefetchHits }, mPrefetchHits},
	{func(c *Counters) *int64 { return &c.CacheCapNow }, nil},
}

// publishMetrics folds this worker's counter growth since the previous
// probe into the process-wide expvar metrics. Every counter with a metric
// only grows.
func (w *worker) publishMetrics(c *Counters) {
	for _, f := range counterFields {
		cur, prev := *f.get(c), f.get(&w.pub)
		if f.metric != nil {
			f.metric.Add(cur - *prev)
		}
		*prev = cur
	}
	mAcks.Add(1)
}

// MetricsText writes every pods_* counter as one "name value" line,
// alphabetically — the plain-text /metrics format.
func MetricsText(w io.Writer) error {
	var err error
	expvar.Do(func(kv expvar.KeyValue) {
		if err != nil || !strings.HasPrefix(kv.Key, "pods_") {
			return
		}
		_, err = fmt.Fprintf(w, "%s %s\n", kv.Key, kv.Value.String())
	})
	return err
}

// MetricsHandler serves MetricsText over HTTP (the podsd -metrics
// endpoint's /metrics route).
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = MetricsText(rw)
	})
}
