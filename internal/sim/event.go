package sim

import (
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

// event is one entry of the priority queue. Events are totally ordered by
// (t, seq), making every simulation bit-for-bit reproducible; seq is taken
// once per scheduled event, in program order. rec is the PE for the two EU
// kinds and an index into Machine.msgs for every other kind.
type event struct {
	t, seq int64
	rec    int32
	kind   evKind
}

func (a *event) before(b *event) bool {
	return a.t < b.t || a.t == b.t && a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of events held by value: a push or a pop
// moves 24-byte entries inside one slice and allocates nothing once the
// slice has grown to the run's peak of pending events.
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
	*q = h
}

// pop removes and returns the earliest event of a non-empty queue.
func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	e := h[n]
	h = h[:n]
	*q = h
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		least := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(&h[least]) {
				least = j
			}
		}
		if !h[least].before(&e) {
			break
		}
		h[i] = h[least]
		i = least
	}
	if n > 0 {
		h[i] = e
	}
	return top
}

// at schedules an event of the given kind at virtual time t.
func (m *Machine) at(t int64, kind evKind, rec int32) {
	m.seq++
	m.events.push(event{t: t, seq: m.seq, rec: rec, kind: kind})
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
