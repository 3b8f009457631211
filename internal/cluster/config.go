package cluster

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/rtcfg"
)

// Config parameterizes a cluster run.
type Config struct {
	// NumPEs is the number of worker PEs (and the divisor for SPAWND and
	// Range Filters). Defaults to rtcfg.DefaultPEs. Ignored when Workers
	// is set — then the worker count is len(Workers).
	NumPEs int

	// PageElems sets the I-structure page size in elements; Range Filters
	// follow the same geometry as the simulator. Defaults to 32.
	PageElems int

	// DistThreshold is the minimum element count for an ALLOCD array to be
	// physically spread over the PEs. Defaults to 2 pages.
	DistThreshold int

	// Workers lists TCP worker addresses ("host:port", one per PE, each
	// running `podsd -worker`). When empty the run uses the in-process
	// channel transport with NumPEs worker goroutines.
	Workers []string

	// ProbeInterval is the mid-run cadence of the driver's probe rounds —
	// what paces adapt cost flushes and rebinds, the heat cap governor,
	// steal revival and the MaxInstrs check. Defaults to 100µs (the driver
	// backs off geometrically up to 50× this while the program is still
	// running). It is not the detection latency: workers report going idle
	// and the driver confirms with an immediate round, so a finished job
	// never waits out an interval.
	ProbeInterval time.Duration

	// Steal enables dynamic work stealing: an idle worker asks a peer
	// (round-robin with backoff) for a not-yet-started SP instance, and
	// the victim leaves a forwarding stub behind for tokens addressed to
	// the stolen SP's home ID. Off by default — static SPAWND
	// partitioning only. The PODS_FORCE_STEAL environment variable
	// ("1"/"true") forces it on, so a CI leg can run the whole steal-off
	// test matrix with stealing engaged.
	Steal bool

	// Adapt enables runtime-adaptive repartitioning of Range Filter
	// bounds: workers charge executed instructions to the (loop, sweep,
	// iteration) that caused them and flush the observations to the driver
	// with every probe ack; the driver re-splits each distributed loop's
	// index range over the PEs (balanced-prefix over observed costs, with
	// hysteresis) and broadcasts the new cuts, which workers stamp onto
	// the next sweep's SPAWND fan-out. Off by default — Range Filter
	// bounds stay fixed at their compile-time form. The PODS_FORCE_ADAPT
	// environment variable ("1"/"true") forces it on, so a CI leg can run
	// the whole test matrix with adaptation engaged.
	Adapt bool

	// Latency injects a fixed per-hop delay into the in-process channel
	// transport (every message is held that long before it becomes
	// receivable; per-pair FIFO is preserved). Zero means deliver
	// immediately. Ignored for TCP workers, whose latency is real.
	Latency time.Duration

	// CachePages bounds each worker shard's software page cache to this
	// many resident remote pages, evicted CLOCK/second-chance style once
	// the cap is reached. 0 (the default) keeps the cache unbounded.
	// Eviction only ever touches cached remote pages — owned segments are
	// the array's home storage — so with single assignment a too-small cap
	// costs refetches, never correctness. The PODS_FORCE_CACHE_PAGES
	// environment variable (a positive integer) applies a cap to runs that
	// leave this field zero, so a CI leg can run the whole test matrix
	// with eviction engaged.
	CachePages int

	// RoundTimeout bounds how long the driver waits for one termination-
	// probe round to complete. A worker that dies or wedges mid-round
	// would otherwise leave ExecuteCluster hanging silently until its
	// context expires; when a round exceeds this deadline the run fails
	// with each PE's last-ack state (round, live SPs, message counters)
	// instead — or, with Recover set, respawns and replays the silent PEs.
	// Defaults to 30s; negative disables the deadline.
	RoundTimeout time.Duration

	// Recover makes the driver survive worker deaths instead of failing
	// the run: the dead PE is fenced behind a fresh incarnation number,
	// respawned (a new goroutine on the channel transport; the next Spares
	// address on TCP), and its root SPAWND assignments are replayed
	// against the surviving shards — sound because single assignment makes
	// re-execution idempotent. Off by default: recovery costs write/grant
	// logging on every worker while it is armed.
	Recover bool

	// Spares lists standby TCP worker addresses (each running
	// `podsd -worker`) a recovery may re-home a dead PE onto. Only
	// meaningful with Workers and Recover set; each recovery consumes one
	// spare.
	Spares []string

	// KillPE / KillAfter arm the channel transport's deterministic fault
	// injector: PE KillPE's endpoint is severed — sends dropped, receives
	// closed, a down notice surfaced to the driver — the moment it has
	// sent KillAfter frames (data frames and probe acks count; both stop
	// at termination, so the kill always lands mid-run and never in the
	// gather phase, whose finished results are unrecoverable). KillAfter 0
	// (the default) disarms it; a KillPE
	// outside [0, NumPEs) never fires. Ignored on TCP, where faults are
	// real (kill the worker process). The PODS_FORCE_KILL_PE environment
	// variable (a PE index, with PODS_FORCE_KILL_AFTER optionally
	// overriding the default of 8 frames) arms it for runs that leave
	// these fields zero and forces Recover on, so a CI leg can run the
	// whole test matrix with a worker dying mid-run in every cluster
	// execution.
	KillPE    int
	KillAfter int64

	// Trace enables the observability subsystem: every worker records
	// scheduling/cache/steal/recovery events into a fixed-capacity ring
	// (internal/cluster/trace), the driver assembles a per-probe-round
	// metrics timeline from the acks, and the run's Result carries both for
	// export (Chrome trace_event JSON, timeline CSV). Recording is
	// allocation-free, bounded (overflow drops the oldest event and counts
	// it), and executes no program instructions, so results stay
	// bit-identical and overhead stays within a few percent. Off by
	// default. The PODS_FORCE_TRACE environment variable ("1"/"true")
	// forces it on, so a CI leg can run the whole test matrix with tracing
	// engaged.
	Trace bool

	// TraceCap bounds each worker's trace ring in events (oldest dropped
	// beyond it). Defaults to 4096 when Trace is set.
	TraceCap int

	// TraceSample records every TraceSample-th SP instance's dispatch and
	// completion (the high-volume events); steals, page traffic, rebounds,
	// epochs, and probes are always recorded. The sampling counter is
	// deterministic, so a given schedule always samples the same
	// instances. Defaults to 1 (record every SP).
	TraceSample int

	// MaxJobs bounds how many jobs a Fleet runs concurrently; a Submit
	// beyond the bound is rejected immediately (admission control), never
	// queued. 0 means DefaultMaxJobs. Fleet-level: ignored on the per-job
	// config passed to Submit.
	MaxJobs int

	// MaxInstrs is the job's instruction budget: the run fails once the
	// workers' acked executed-instruction total exceeds it. Enforcement
	// rides the probe cadence, so a job can overshoot by at most one
	// round's work before it is stopped. 0 (the default) is unlimited.
	MaxInstrs int64

	// Heat enables the unified page-heat machinery: every worker keeps one
	// per-shard table of (array, page) → {residency, heat, last touch,
	// sequential-run length} and spends it four ways — steal requests
	// advertise hot pages instead of hot arrays, sequential scans prefetch
	// the next page before the miss, CachePages self-tunes between the
	// configured floor and 8× it from refetch pressure, and a rebind
	// migrates the hot pages of its newly-gained iterations. Off by
	// default: every mechanism rides existing message kinds, so results
	// stay bit-identical either way. The PODS_FORCE_PREFETCH environment
	// variable ("1"/"true") forces it on, so a CI leg can run the whole
	// test matrix with the heat machinery engaged.
	Heat bool

	// MaxElems is the job's memory budget in allocated I-structure
	// elements, enforced exactly at each allocation broadcast (the driver
	// sees every ALLOC/ALLOCD before an element is written). A job whose
	// allocations would exceed the budget fails without disturbing
	// concurrent jobs. 0 (the default) is unlimited.
	MaxElems int64
}

// DefaultMaxJobs is the concurrent-job admission bound a Fleet applies
// when Config.MaxJobs is zero.
const DefaultMaxJobs = 16

// fill applies the shared backend defaults and validates the result.
func (c *Config) fill() error {
	if len(c.Workers) > 0 {
		if c.NumPEs != 0 && c.NumPEs != len(c.Workers) {
			return fmt.Errorf("cluster: NumPEs %d conflicts with %d worker addresses", c.NumPEs, len(c.Workers))
		}
		c.NumPEs = len(c.Workers)
	}
	g := rtcfg.Geometry{PEs: c.NumPEs, PageElems: c.PageElems, DistThreshold: c.DistThreshold}
	if err := g.Fill(rtcfg.DefaultPEs); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	c.NumPEs, c.PageElems, c.DistThreshold = g.PEs, g.PageElems, g.DistThreshold
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 100 * time.Microsecond
	}
	if c.Latency < 0 {
		return fmt.Errorf("cluster: negative injected latency %v", c.Latency)
	}
	if c.CachePages < 0 {
		return fmt.Errorf("cluster: negative page-cache cap %d", c.CachePages)
	}
	if c.RoundTimeout == 0 {
		c.RoundTimeout = 30 * time.Second
	}
	if ForceStealFromEnv() {
		c.Steal = true
	}
	if ForceAdaptFromEnv() {
		c.Adapt = true
	}
	if c.CachePages == 0 {
		if cap, ok := ForceCachePagesFromEnv(); ok {
			c.CachePages = cap
		}
	}
	if len(c.Spares) > 0 && len(c.Workers) == 0 {
		return fmt.Errorf("cluster: %d spare addresses without TCP workers", len(c.Spares))
	}
	if c.KillAfter < 0 {
		return fmt.Errorf("cluster: negative KillAfter %d", c.KillAfter)
	}
	if c.KillAfter == 0 && len(c.Workers) == 0 {
		if pe, after, ok := ForceKillFromEnv(); ok {
			c.KillPE, c.KillAfter = pe, after
			c.Recover = true
		}
	}
	if forceTraceFromEnv() {
		c.Trace = true
	}
	if ForcePrefetchFromEnv() {
		c.Heat = true
	}
	if c.TraceCap < 0 || c.TraceSample < 0 {
		return fmt.Errorf("cluster: negative trace bound (cap %d, sample %d)", c.TraceCap, c.TraceSample)
	}
	if c.MaxJobs < 0 {
		return fmt.Errorf("cluster: negative MaxJobs %d", c.MaxJobs)
	}
	if c.MaxInstrs < 0 || c.MaxElems < 0 {
		return fmt.Errorf("cluster: negative job budget (MaxInstrs %d, MaxElems %d)", c.MaxInstrs, c.MaxElems)
	}
	if c.Trace {
		if c.TraceCap == 0 {
			c.TraceCap = 4096
		}
		if c.TraceSample == 0 {
			c.TraceSample = 1
		}
	}
	return nil
}

// workerOpts bundles the per-worker feature switches newWorker takes, so
// the three spawn sites (in-process bring-up, channel respawn, TCP
// ServeWorker) stay in sync as features accrete.
type workerOpts struct {
	steal       bool
	adapt       bool
	cachePages  int
	trace       bool
	traceCap    int
	traceSample int
	heat        bool
}

// workerOpts derives a worker's option set from a filled Config.
func (c *Config) workerOpts() workerOpts {
	return workerOpts{
		steal:       c.Steal,
		adapt:       c.Adapt,
		cachePages:  c.CachePages,
		trace:       c.Trace,
		traceCap:    c.TraceCap,
		traceSample: c.TraceSample,
		heat:        c.Heat,
	}
}

// ForceKillFromEnv reports the PODS_FORCE_KILL_PE override: the PE index
// to fault-inject, with PODS_FORCE_KILL_AFTER optionally overriding the
// default budget of 8 worker-to-worker frames. Exported so tests that
// depend on fault injection being genuinely off can check the exact
// condition fill applies.
func ForceKillFromEnv() (pe int, after int64, ok bool) {
	v := os.Getenv("PODS_FORCE_KILL_PE")
	if v == "" {
		return 0, 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, 0, false
	}
	after = 8
	if av := os.Getenv("PODS_FORCE_KILL_AFTER"); av != "" {
		an, err := strconv.ParseInt(av, 10, 64)
		if err == nil && an > 0 {
			after = an
		}
	}
	return n, after, true
}

// ForceStealFromEnv reports whether the PODS_FORCE_STEAL environment
// override is active ("1" or "true"). Exported so experiment harnesses
// whose control arms depend on stealing being genuinely off (bench.Skew)
// test the exact condition fill applies.
func ForceStealFromEnv() bool { return forcedEnv("PODS_FORCE_STEAL") }

// ForceAdaptFromEnv reports whether the PODS_FORCE_ADAPT environment
// override is active ("1" or "true"). Exported for the same reason as
// ForceStealFromEnv: experiment harnesses whose control arms depend on
// adaptation being genuinely off (bench.Adapt) test the exact condition
// fill applies.
func ForceAdaptFromEnv() bool { return forcedEnv("PODS_FORCE_ADAPT") }

// forceTraceFromEnv reports whether the PODS_FORCE_TRACE environment
// override is active ("1" or "true").
func forceTraceFromEnv() bool { return forcedEnv("PODS_FORCE_TRACE") }

// ForcePrefetchFromEnv reports whether the PODS_FORCE_PREFETCH
// environment override is active ("1" or "true"). Exported so experiment
// harnesses whose control arms depend on the heat machinery being
// genuinely off (bench.Cache's prefetch-off arm) test the exact condition
// fill applies.
func ForcePrefetchFromEnv() bool { return forcedEnv("PODS_FORCE_PREFETCH") }

// ForceCachePagesFromEnv reports the PODS_FORCE_CACHE_PAGES override: a
// positive integer page-cache cap applied to runs that leave
// Config.CachePages at its zero default. Exported so experiment harnesses
// whose unbounded control arm depends on the cache being genuinely
// uncapped (bench.Cache) test the exact condition fill applies.
func ForceCachePagesFromEnv() (int, bool) {
	v := os.Getenv("PODS_FORCE_CACHE_PAGES")
	if v == "" {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

func forcedEnv(name string) bool {
	v := os.Getenv(name)
	return v == "1" || v == "true"
}
