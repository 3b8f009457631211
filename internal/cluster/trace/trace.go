// Package trace is the cluster runtime's observability core: a low-overhead,
// fixed-capacity per-PE event recorder plus the assembled whole-run trace the
// driver gathers after termination. The recorder is built for the worker's
// inner loop — recording is allocation-free, capacity is fixed up front
// (overflow drops the oldest event and counts the drop, it never grows), and
// high-volume SP events can be sampled deterministically — so a trace-on run
// stays within a few percent of a trace-off run and, because recording
// executes no program instructions, produces bit-identical results.
//
// Every event carries two timestamps: the wall clock (for humans and the
// Chrome trace_event export) and the recording PE's executed-instruction
// counter (the runtime's deterministic notion of local time, so traces stay
// comparable across runs and under the deterministic test schedules).
package trace

import "time"

// Kind discriminates recorded events.
type Kind uint8

// Event kinds. Arg0/Arg1 meanings are per kind (documented here; the
// exporters render them).
const (
	// EvSPDispatch: an SP instance started (or resumed) executing.
	// Arg0 = SP id, Arg1 = template id. Subject to sampling.
	EvSPDispatch Kind = iota + 1

	// EvSPComplete: an SP instance ran to HALT. Arg0 = SP id,
	// Arg1 = template id. Recorded iff the instance's dispatches were.
	EvSPComplete

	// EvStealReq: this PE, idle, asked a victim for work. Arg0 = victim PE.
	EvStealReq

	// EvStealGrant: this PE granted a batch of SPs to a thief.
	// Arg0 = thief PE, Arg1 = batch size.
	EvStealGrant

	// EvStealNone: a victim declined this PE's steal request. Arg0 = victim.
	EvStealNone

	// EvStealIn: a granted batch was installed here. Arg0 = grantor PE,
	// Arg1 = batch size.
	EvStealIn

	// EvPageFetch: a remote read missed the page cache and a page request
	// went to the owner. Arg0 = array id, Arg1 = page index.
	EvPageFetch

	// EvPageEvict: the CLOCK bound evicted a cached page. Arg0 = array id,
	// Arg1 = page index.
	EvPageEvict

	// EvRebound: an adaptive cut table was installed for a loop template.
	// Arg0 = template id.
	EvRebound

	// EvProbe: a termination probe was answered. Arg0 = round,
	// Arg1 = ready-queue depth at the probe.
	EvProbe

	// EvPrefetch: the heat machinery asked a page's owner for it ahead of
	// the miss (streaming scan). Arg0 = array id, Arg1 = page index.
	EvPrefetch

	// EvCacheResize: the adaptive governor moved the shard's CachePages
	// bound. Arg0 = the new cap, Arg1 = the probe round's refetch delta
	// that drove it (0 for a quiet-round shrink).
	EvCacheResize
)

func (k Kind) String() string {
	switch k {
	case EvSPDispatch:
		return "sp.dispatch"
	case EvSPComplete:
		return "sp.complete"
	case EvStealReq:
		return "steal.req"
	case EvStealGrant:
		return "steal.grant"
	case EvStealNone:
		return "steal.none"
	case EvStealIn:
		return "steal.in"
	case EvPageFetch:
		return "page.fetch"
	case EvPageEvict:
		return "page.evict"
	case EvRebound:
		return "rebound"
	case EvProbe:
		return "probe"
	case EvPrefetch:
		return "prefetch"
	case EvCacheResize:
		return "cache-resize"
	default:
		return "ev?"
	}
}

// Event is one recorded occurrence on one PE.
type Event struct {
	Kind  Kind
	Wall  int64 // wall clock, nanoseconds since the Unix epoch
	Instr int64 // the recording PE's executed-instruction counter
	Arg0  int64 // kind-specific (see the Kind constants)
	Arg1  int64
}

// eventWords is the flattened wire size of one event in int64 words.
const eventWords = 5

// ring is a fixed-capacity buffer that overwrites, and counts, its oldest
// element once full.
type ring[T any] struct {
	buf   []T
	head  int   // index of the oldest element
	n     int   // live elements (≤ len(buf))
	drops int64 // elements overwritten on overflow
}

// newRing returns a ring of the given capacity; capacity < 1 is treated as 1.
func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, max(capacity, 1))}
}

// next returns the slot the next element goes in, which the caller fills:
// a free one, or, when the ring is full, the oldest element's.
func (r *ring[T]) next() *T {
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	if r.n == len(r.buf) {
		if r.head++; r.head == len(r.buf) {
			r.head = 0
		}
		r.drops++
	} else {
		r.n++
	}
	return &r.buf[i]
}

// at returns the i-th live element, oldest first.
func (r *ring[T]) at(i int) *T {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// Recorder is a fixed-capacity ring of events for one PE. It is not
// goroutine-safe: exactly one worker goroutine records into it, matching the
// cluster's share-nothing worker model.
type Recorder struct {
	ring ring[Event]

	sample int // record every sample-th sampled decision (≥1)
	tick   int // sampling counter

	now func() int64 // wall-clock source, swappable in tests
}

// New returns a recorder with the given ring capacity and SP-event sampling
// period. capacity < 1 is treated as 1; sample < 1 as 1 (record everything).
func New(capacity, sample int) *Recorder {
	if sample < 1 {
		sample = 1
	}
	return &Recorder{
		ring:   newRing[Event](capacity),
		sample: sample,
		now:    func() int64 { return time.Now().UnixNano() },
	}
}

// SampleSP advances the deterministic sampling counter and reports whether
// the next SP instance's dispatch/complete events should be recorded. The
// decision depends only on how many times SampleSP was called before, so a
// fixed call sequence always samples the same instances.
func (r *Recorder) SampleSP() bool {
	on := r.tick%r.sample == 0
	r.tick++
	return on
}

// Record appends one event, overwriting (and counting) the oldest when the
// ring is full. The fast path allocates nothing.
func (r *Recorder) Record(k Kind, instr, arg0, arg1 int64) {
	*r.ring.next() = Event{Kind: k, Wall: r.now(), Instr: instr, Arg0: arg0, Arg1: arg1}
}

// Len reports the number of live events.
func (r *Recorder) Len() int { return r.ring.n }

// Drops reports how many events the capacity bound discarded.
func (r *Recorder) Drops() int64 { return r.ring.drops }

// Events returns the live events oldest-first (a copy).
func (r *Recorder) Events() []Event {
	out := make([]Event, r.ring.n)
	for i := range out {
		out[i] = *r.ring.at(i)
	}
	return out
}

// Flatten encodes the live events oldest-first as eventWords int64s apiece —
// the wire form a KTrace frame carries.
func (r *Recorder) Flatten() []int64 {
	out := make([]int64, 0, r.ring.n*eventWords)
	for i := 0; i < r.ring.n; i++ {
		e := r.ring.at(i)
		out = append(out, int64(e.Kind), e.Wall, e.Instr, e.Arg0, e.Arg1)
	}
	return out
}

// Unflatten decodes a Flatten payload. A trailing partial event (corrupt
// frame) is dropped rather than failing: traces are diagnostics, and a
// best-effort prefix beats nothing.
func Unflatten(vs []int64) []Event {
	n := len(vs) / eventWords
	out := make([]Event, n)
	for i := 0; i < n; i++ {
		w := vs[i*eventWords:]
		out[i] = Event{Kind: Kind(w[0]), Wall: w[1], Instr: w[2], Arg0: w[3], Arg1: w[4]}
	}
	return out
}

// PETrace is one PE's gathered event stream.
type PETrace struct {
	Events []Event
	Drops  int64 // events the PE's ring capacity discarded
}

// Sample is one (probe round, PE) row of the driver-side metrics timeline:
// instantaneous queue depth plus counter deltas since the PE's previous
// completed round.
type Sample struct {
	Round  int
	Wall   int64 // nanoseconds since the driver's run start
	PE     int
	Instrs int64 // instructions executed this round (delta)
	QDepth int64 // ready-queue depth at the probe (instantaneous)
	Live   int64 // live SP instances at the probe (instantaneous)
	Sent   int64 // data messages sent this round (delta)
	Hits   int64 // page-cache hits this round (delta)
	Misses int64 // page-cache misses this round (delta)
	Evicts int64 // pages evicted this round (delta)
	Steals int64 // SPs stolen in this round (delta)
}

// Timeline is the assembled per-round utilization/cache/steal timeline.
type Timeline struct {
	Samples []Sample
	Drops   int64 // samples discarded by the builder's capacity bound
}

// TimelineBuilder accumulates samples under a fixed capacity, dropping the
// oldest (and counting) on overflow — the driver-side mirror of the
// recorder's never-grow-unboundedly rule, sized for runs with arbitrarily
// many probe rounds.
type TimelineBuilder struct {
	ring ring[Sample]
}

// NewTimelineBuilder returns a builder bounded to capacity samples.
func NewTimelineBuilder(capacity int) *TimelineBuilder {
	return &TimelineBuilder{ring: newRing[Sample](capacity)}
}

// Add appends one sample, dropping the oldest when full.
func (b *TimelineBuilder) Add(s Sample) { *b.ring.next() = s }

// Done returns the accumulated timeline oldest-first.
func (b *TimelineBuilder) Done() *Timeline {
	t := &Timeline{Samples: make([]Sample, b.ring.n), Drops: b.ring.drops}
	for i := range t.Samples {
		t.Samples[i] = *b.ring.at(i)
	}
	return t
}

// Trace is a whole run's gathered observability data: every PE's event
// stream plus the driver's per-round metrics timeline.
type Trace struct {
	NumPEs   int
	PEs      []PETrace
	Timeline *Timeline
}

// Events counts gathered events across all PEs.
func (t *Trace) Events() int {
	n := 0
	for i := range t.PEs {
		n += len(t.PEs[i].Events)
	}
	return n
}

// Drops sums every PE's ring drops.
func (t *Trace) Drops() int64 {
	var n int64
	for i := range t.PEs {
		n += t.PEs[i].Drops
	}
	return n
}
