package cluster

import (
	"fmt"
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
	// partitioning only. Stealing changes only the schedule, so a job that
	// steals survives a worker death by running again like any other.
	Steal bool

	// Adapt enables runtime-adaptive repartitioning of Range Filter
	// bounds: workers charge executed instructions to the (loop, sweep,
	// iteration) that caused them and flush the observations to the driver
	// with every probe ack; the driver re-splits each distributed loop's
	// index range over the PEs (balanced-prefix over observed costs, with
	// hysteresis) and broadcasts the new cuts, which workers stamp onto
	// the next sweep's SPAWND fan-out. Off by default — Range Filter
	// bounds stay fixed at their compile-time form.
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
	// costs refetches, never correctness.
	CachePages int

	// RoundTimeout bounds how long the driver waits for one termination-
	// probe round to complete. A worker that dies or wedges mid-round
	// would otherwise leave ExecuteCluster hanging silently until its
	// context expires; when a round exceeds this deadline the run fails
	// with each PE's last-ack state (round, live SPs, message counters)
	// instead, and with each PE's trace tail when Trace is set. A stall
	// names no dead PE, so it fails the job rather than running it again.
	// The result gather has the same deadline. Defaults to 30s; negative
	// disables it.
	RoundTimeout time.Duration

	// Spares lists standby TCP worker addresses (each running
	// `podsd -worker`). Every job survives a worker death by running again
	// from its program and arguments, with the dead PE re-homed: onto a new
	// goroutine on the channel transport, onto the next spare on TCP. Each
	// re-homed PE consumes one spare; a TCP death with none left fails the
	// job. Only meaningful with Workers set.
	Spares []string

	// KillPE / KillAfter arm the channel transport's deterministic fault
	// injector: PE KillPE's endpoint is severed — sends dropped, receives
	// closed, a down notice surfaced to the driver — on the first frame it
	// sends past KillAfter once it has been sent a spawn (data frames and
	// probe acks count; both stop at termination, so the kill lands
	// mid-run, not in the result gather), and the job survives it by
	// running again. KillAfter 0 (the default) disarms it; a KillPE
	// outside [0, NumPEs) never fires. Ignored on TCP, where faults are
	// real (kill the worker process). Fleet-level: ignored on the per-job
	// config passed to Submit.
	KillPE    int
	KillAfter int64

	// Trace enables the observability subsystem: every worker records
	// scheduling/cache/steal events into a fixed-capacity ring
	// (internal/cluster/trace), the driver assembles a per-probe-round
	// metrics timeline from the acks, and the run's Result carries both for
	// export (Chrome trace_event JSON, timeline CSV). Recording is
	// allocation-free, bounded (overflow drops the oldest event and counts
	// it), and executes no program instructions, so results stay
	// bit-identical and overhead stays within a few percent. Off by
	// default.
	Trace bool

	// TraceCap bounds each worker's trace ring in events (oldest dropped
	// beyond it). Defaults to 4096 when Trace is set; at most 1<<20.
	TraceCap int

	// TraceSample records every TraceSample-th SP instance's dispatch and
	// completion (the high-volume events); steals, page traffic, rebounds
	// and probes are always recorded. The sampling counter is
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

	// Heat enables two decisions on the per-shard page-heat table of
	// (array, page) → {residency, heat, last touch, sequential-run
	// length}: sequential scans prefetch the next page before the miss,
	// and CachePages self-tunes between the configured floor and 8× it
	// from refetch pressure. The table itself is kept either way, and
	// steal requests always advertise its hot pages. Off by default: both
	// ride existing message kinds, so results stay bit-identical either
	// way.
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

// maxTraceCap bounds Config.TraceCap. Every PE allocates its whole ring up
// front, so the cap a job-server client asks for must stay small.
const maxTraceCap = 1 << 20

// wireKnobs lists the job-level fields — what KJobStart and KSubmit carry
// — grouped by wire type, for both codec halves. The rest of Config is the
// driver's (NumPEs, Workers, Spares, ProbeInterval, RoundTimeout, Latency)
// or the fleet's (KillPE, KillAfter, MaxJobs) and never crosses a wire.
func (c *Config) wireKnobs() (ints []*int, flags []*bool, budgets []*int64) {
	return []*int{&c.PageElems, &c.CachePages, &c.TraceCap, &c.TraceSample},
		[]*bool{&c.Steal, &c.Adapt, &c.Trace, &c.Heat},
		[]*int64{&c.MaxInstrs, &c.MaxElems}
}

// fill applies the shared backend defaults and validates the result.
func (c *Config) fill() error {
	if len(c.Workers) > 0 {
		if c.NumPEs != 0 && c.NumPEs != len(c.Workers) {
			return fmt.Errorf("cluster: NumPEs %d conflicts with %d worker addresses", c.NumPEs, len(c.Workers))
		}
		c.NumPEs = len(c.Workers)
	}
	g := rtcfg.Geometry{PEs: c.NumPEs, PageElems: c.PageElems}
	if err := g.Fill(rtcfg.DefaultPEs); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	c.NumPEs, c.PageElems = g.PEs, g.PageElems
	if c.NumPEs > maxPEs {
		return fmt.Errorf("cluster: %d PEs exceeds the maximum %d a packed SP or array ID can name", c.NumPEs, maxPEs)
	}
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
	if len(c.Spares) > 0 && len(c.Workers) == 0 {
		return fmt.Errorf("cluster: %d spare addresses without TCP workers", len(c.Spares))
	}
	if c.KillAfter < 0 {
		return fmt.Errorf("cluster: negative KillAfter %d", c.KillAfter)
	}
	if c.TraceCap < 0 || c.TraceCap > maxTraceCap || c.TraceSample < 0 {
		return fmt.Errorf("cluster: trace bound out of range (cap %d, at most %d; sample %d)", c.TraceCap, maxTraceCap, c.TraceSample)
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
