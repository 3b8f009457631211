package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/istructure"
)

// evKind names what happens when an event fires. Machine.Run dispatches on
// it with one switch; there is no closure anywhere in the event path.
type evKind uint8

const (
	evNone      evKind = iota // a unit's service that nobody waits for
	evEU                      // an EU stepping chain resumes; rec is the PE
	evEUSettled               // the same, re-run at the same time after an absent operand
	evRU                      // the sender's Routing Unit is done: the message is in flight
	evArrive                  // the message reached msg.dst: msg.dur of service on msg.unit
	// What the last service of a message (or of a local request) completes:
	evAllocDone // local AM built the header: return the ID, broadcast if distributed
	evLocalRead // AM enqueues a read of an absent owned element
	evProbe     // AM probes the page cache for a remote element
	evReadReq   // owner's AM serves a remote read request
	evPage      // requester's AM received a page
	evToken     // Matching Unit matched a token: deliver it
	evWrite     // owner's AM performs a write
	evSpawnMM   // Memory Manager loaded the SP: on to the Matching Unit
	evSpawnMU   // Matching Unit registered the SP: it is ready
)

// event is one entry of the event queue. Events are totally ordered by
// (t, push order), making every simulation bit-for-bit reproducible: events
// at one virtual time fire in the order they were scheduled, which is
// program order. rec is the PE for the two EU kinds and an index into
// Machine.msgs for every other kind. An event is 16 bytes.
type event struct {
	t    int64
	rec  int32
	kind evKind
}

// eventQueue is a monotone radix heap of events held by value (Ahuja,
// Mehlhorn, Orlin and Tarjan, JACM 1990). Virtual time never goes back, so
// no pending event is earlier than last, the time of the latest pop, and an
// event sits in bucket bits.Len64(t^last): every event of a bucket is
// earlier than every event of a higher one, and bucket 0 holds the events
// at last itself, read first in, first out from head. A pop that finds
// bucket 0 empty moves the lowest non-empty bucket down past its minimum,
// in order, into the empty buckets below it. So each bucket stays in push
// order, equal times share a bucket, and the queue pops in (t, push order)
// at amortised O(1) per event. It allocates nothing once the buckets have
// grown to the run's peaks.
type eventQueue struct {
	last int64
	head int         // the next event of b[0] to pop
	mask uint64      // bit i set: b[i] holds a pending event
	b    [64][]event // times are non-negative, so t^last < 1<<63
}

func (q *eventQueue) empty() bool { return q.mask == 0 }

// push adds an event no earlier than the latest pop.
func (q *eventQueue) push(e event) {
	i := bits.Len64(uint64(e.t ^ q.last))
	q.b[i] = append(q.b[i], e)
	q.mask |= 1 << i
}

// pop removes and returns the earliest event of a non-empty queue.
func (q *eventQueue) pop() event {
	if q.mask&1 == 0 {
		i := bits.TrailingZeros64(q.mask)
		b := q.b[i]
		q.last = b[0].t
		for _, e := range b[1:] {
			q.last = min(q.last, e.t)
		}
		q.b[i], q.mask = b[:0], q.mask&^(1<<i)
		for _, e := range b {
			q.push(e) // into a bucket below i
		}
	}
	e := q.b[0][q.head]
	if q.head++; q.head == len(q.b[0]) {
		q.b[0], q.head, q.mask = q.b[0][:0], 0, q.mask&^1
	}
	return e
}

// due reports whether an event is pending at or before t. The lowest
// non-empty bucket holds the earliest event; bucket 0's time is last.
func (q *eventQueue) due(t int64) bool {
	if q.mask&1 != 0 {
		return q.last <= t
	}
	if q.mask != 0 {
		for _, e := range q.b[bits.TrailingZeros64(q.mask)] {
			if e.t <= t {
				return true
			}
		}
	}
	return false
}

// at schedules an event of the given kind at virtual time t. A time before
// the present fails the run: the queue cannot hold it.
func (m *Machine) at(t int64, kind evKind, rec int32) {
	if t < m.now {
		m.fail(fmt.Errorf("sim: time went backwards (%d < %d)", t, m.now))
		return
	}
	m.events.push(event{t: t, rec: rec, kind: kind})
}

// msg is the pooled record behind every non-EU event: a request working its
// way through functional units, possibly across the network. Exactly one
// pending event owns a msg at any time; the handler of its last stage (kind)
// copies it out and frees it before starting anything new, so the slot can
// be reused at once. Only the fields a kind needs are set.
type msg struct {
	kind   evKind // the stage after the last service
	src    int32  // requesting PE
	dst    int32  // PE whose unit serves the message
	tmpl   int32  // writer's template, to name it in a write error
	arr    int64  // array ID
	off    int    // linear element offset
	slot   int    // frame slot the result goes to
	flight int64  // latency in flight, after the RU service
	dur    int64  // service time at dst on arrival
	sp     int64  // SP instance the result goes to
	val    isa.Value
	unit   *unit   // which unit of dst serves it on arrival
	child  *spInst // the instance a spawn is activating

	// page is a snapshot on its way into src's page cache. The cache keeps
	// its slices, so unlike the msg itself they are never reused.
	page    istructure.CachedPage
	pageIdx int
}

// newMsg stores r in a free slot of the pool and returns its index.
func (m *Machine) newMsg(r msg) int32 {
	if n := len(m.freeMsgs); n > 0 {
		i := m.freeMsgs[n-1]
		m.freeMsgs = m.freeMsgs[:n-1]
		m.msgs[i] = r
		return i
	}
	m.msgs = append(m.msgs, r)
	return int32(len(m.msgs) - 1)
}

// takeMsg copies a msg out of the pool and frees its slot.
func (m *Machine) takeMsg(i int32) msg {
	r := m.msgs[i]
	m.msgs[i] = msg{} // drop the pointers
	m.freeMsgs = append(m.freeMsgs, i)
	return r
}
