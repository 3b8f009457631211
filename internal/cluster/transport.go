package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by a mailbox receive once the box is closed and
// drained, and by Endpoint.Send after Close.
var ErrClosed = errors.New("cluster: endpoint closed")

// errWake is returned by mailbox.recvUntil when the caller's wake channel
// fired before a message arrived.
var errWake = errors.New("cluster: receive deadline reached")

// Endpoint is the send side of one party on a cluster transport: worker PEs
// 0..N-1 plus the driver at ID N. Sends are asynchronous, reliable, and
// FIFO per (sender, receiver) pair — the ordering contract the protocol
// relies on (e.g. an alloc broadcast reaches a PE before any spawn the
// allocator sends it afterwards). Every party receives from a mailbox of
// its own (its endpoint's inbox table routes each arriving frame to one),
// in arrival order; no transport has a receive method.
//
// A sent Msg belongs to whoever consumes it: the sender must not retain,
// mutate or read it (or any slice it references) after Send returns, even
// when Send fails. The consumer releases the frame to the pool exactly once
// (releaseMsg): the receiving worker or driver once it has handled it, or
// the TCP endpoint once it has encoded it, so a receiver keeps nothing that
// points into the struct. The one exception to the rule on slices is final
// I-structure data: the Vals/Set of a full KPage and of a KDump are views
// of the sender's segment, which it keeps, and which neither side writes
// again.
type Endpoint interface {
	// Send enqueues m for endpoint `to` and returns without waiting for
	// delivery.
	Send(to int, m *Msg) error

	// Close releases the endpoint. Receives from its mailbox fail with
	// ErrClosed once the queue drains.
	Close() error
}

// mailbox is an unbounded FIFO message queue. Unboundedness is load-bearing:
// worker loops both send and receive, so any bounded queue could deadlock on
// cyclic token traffic (A blocked sending to B while B is blocked sending to
// A). Real message-passing machines solve this with flow control; we solve
// it with memory.
//
// A mailbox can also inject transport latency: with delay > 0 every message
// is stamped with a due time on put and only becomes receivable once it has
// "been on the wire" that long. Because the delay is one constant, due times
// are monotone in queue order, so delivery order — and with it the per-pair
// FIFO contract — is exactly what it would be with zero latency.
type mailbox struct {
	mu     sync.Mutex
	q      []mboxEntry
	head   int
	notify chan struct{} // capacity 1: a "queue became non-empty" latch
	closed bool
	delay  time.Duration // injected per-hop latency (0 = immediate)
}

// mboxEntry is one queued message plus its delivery due time (zero when the
// mailbox has no injected latency).
type mboxEntry struct {
	m   *Msg
	due time.Time
}

func newMailbox() *mailbox {
	return &mailbox{notify: make(chan struct{}, 1)}
}

func newDelayMailbox(delay time.Duration) *mailbox {
	b := newMailbox()
	b.delay = delay
	return b
}

func (b *mailbox) put(m *Msg) { b.putAll([]*Msg{m}) }

// putAll enqueues ms in order under one lock and one wake-up: a TCP pump
// hands over every frame a read returned at once.
func (b *mailbox) putAll(ms []*Msg) {
	if len(ms) == 0 {
		return
	}
	var due time.Time
	if b.delay > 0 {
		due = time.Now().Add(b.delay)
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	for _, m := range ms {
		b.q = append(b.q, mboxEntry{m: m, due: due})
	}
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// pop returns the next due message. wait is non-zero when the head message
// exists but its injected latency has not elapsed yet.
func (b *mailbox) pop() (m *Msg, ok bool, wait time.Duration, closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.head < len(b.q) {
		e := b.q[b.head]
		if !e.due.IsZero() {
			if w := time.Until(e.due); w > 0 {
				return nil, false, w, b.closed
			}
		}
		b.q[b.head] = mboxEntry{}
		b.head++
		if b.head == len(b.q) {
			b.q = b.q[:0]
			b.head = 0
		}
		return e.m, true, 0, b.closed
	}
	return nil, false, 0, b.closed
}

// recv blocks until a message is due, the context is done, or the box is
// closed and drained (ErrClosed).
func (b *mailbox) recv(ctx context.Context) (*Msg, error) { return b.recvUntil(ctx, nil) }

// tryRecv returns the next message if one is already due.
func (b *mailbox) tryRecv() (*Msg, bool) {
	m, ok, _, _ := b.pop()
	return m, ok
}

// recvUntil is recv with a caller-owned deadline: it returns errWake once
// wake delivers (a nil wake never does). The caller arms one reusable timer
// and passes its channel, so a bounded wait costs no allocation per receive.
func (b *mailbox) recvUntil(ctx context.Context, wake <-chan time.Time) (*Msg, error) {
	for {
		m, ok, wait, closed := b.pop()
		if ok {
			return m, nil
		}
		if closed && wait == 0 {
			// Truly empty and closed; in-flight (undue) messages still
			// drain before ErrClosed.
			return nil, ErrClosed
		}
		var due *time.Timer
		var dueC <-chan time.Time
		if wait > 0 {
			due = time.NewTimer(wait)
			dueC = due.C
		}
		var err error
		select {
		case <-b.notify:
		case <-dueC:
		case <-wake:
			err = errWake
		case <-ctx.Done():
			err = ctx.Err()
		}
		if due != nil {
			due.Stop()
		}
		if err != nil {
			return nil, err
		}
	}
}

func (b *mailbox) close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// sever closes the box and discards what it holds in one step, so a
// receive fails with ErrClosed at once: the fault injector's kill.
func (b *mailbox) sever() {
	b.mu.Lock()
	clear(b.q)
	b.q, b.head, b.closed = b.q[:0], 0, true
	b.mu.Unlock()
	b.close() // wakes a blocked receiver
}

// hostStashMax bounds the frames an inbox table holds for jobs that have
// not started on its endpoint (peer traffic can race the KJobStart on the
// driver's stream). Beyond it frames are dropped, and the job they belong
// to stalls and fails with the stall report.
const hostStashMax = 1 << 16

// inboxTable is one endpoint's receive side on every transport. Fleet-level
// frames (Job 0) and job lifecycle (KJobStart, KJobEnd) queue in box for the
// endpoint's owner; every other frame goes straight into its job's inbox,
// drained by that job's worker (or driver loop). Lifecycle frames change
// the routing where they are delivered, in stream order: KJobStart opens
// the inbox every later frame of the job enters (adopting the one frames
// that raced it wait in, or replacing a started predecessor's, which the
// owner retires); KJobEnd closes it and tombstones the job. So a job's
// frames from one sender enter one inbox first to last: per-pair FIFO
// holds by construction.
type inboxTable struct {
	box   *mailbox
	delay time.Duration // injected latency of every inbox

	mu     sync.Mutex
	jobs   map[int32]jobInbox
	held   int // frames in not-yet-started inboxes, at most hostStashMax
	closed bool
}

// jobInbox is a routed job's mailbox (nil: the job ended); held counts the
// frames that reached it before the job started (zero once opened).
type jobInbox struct {
	box  *mailbox
	held int
}

func newInboxTable(delay time.Duration) *inboxTable {
	return &inboxTable{box: newDelayMailbox(delay), delay: delay, jobs: make(map[int32]jobInbox)}
}

func (t *inboxTable) put(m *Msg) { t.putAll([]*Msg{m}) }

// putAll delivers frames in order, with one inbox hand-over per run of
// same-job frames.
func (t *inboxTable) putAll(ms []*Msg) {
	for len(ms) > 0 {
		m, n := ms[0], 1
		switch m.Kind {
		case KJobStart:
			m.Cfg.inbox = t.open(m.Job)
			t.box.put(m)
		case KJobEnd:
			t.end(m.Job)
			t.box.put(m)
		default:
			for n < len(ms) && ms[n].Job == m.Job && ms[n].Kind != KJobStart && ms[n].Kind != KJobEnd {
				n++
			}
			if box := t.route(m.Job, ms[:n]); box != nil {
				box.putAll(ms[:n])
			}
		}
		ms = ms[n:]
	}
}

// route returns where ms go (box for fleet-level frames, else the job's
// open inbox), or nil when it held them for a job not started here or
// dropped them (ended job, closed table, hold bound reached).
func (t *inboxTable) route(job int32, ms []*Msg) *mailbox {
	if job == 0 {
		return t.box
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.jobs[job]
	if ok && e.held == 0 {
		return e.box // nil for an ended job
	}
	if t.closed || t.held+len(ms) > hostStashMax {
		return nil
	}
	if !ok {
		e.box = newDelayMailbox(t.delay)
	}
	e.box.putAll(ms)
	e.held += len(ms)
	t.held += len(ms)
	t.jobs[job] = e
	return nil
}

// open opens the job's inbox and returns it.
func (t *inboxTable) open(job int32) *mailbox {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.jobs[job]
	if e.held == 0 {
		e.box = newDelayMailbox(t.delay)
	}
	if t.closed {
		e.box.close()
	}
	t.held -= e.held
	t.jobs[job] = jobInbox{box: e.box}
	return e.box
}

// end closes the job's inbox and drops every later frame of the job.
func (t *inboxTable) end(job int32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.jobs[job]; e.box != nil {
		e.box.close()
		t.held -= e.held
	}
	t.jobs[job] = jobInbox{}
}

// shut closes every inbox and drops all later job frames: the endpoint's
// owner is gone.
func (t *inboxTable) shut() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range t.jobs {
		if e.box != nil {
			e.box.close()
		}
	}
	clear(t.jobs)
	t.held, t.closed = 0, true
}

// chanTransport is the in-process transport: one inbox table per endpoint,
// message pointers handed over directly. There is no shared program state —
// the only thing workers share is the wire.
//
// The transport doubles as the fault injector, for tests: once armed it
// severs PE killPE's endpoint — sends dropped, its fleet-level box closed
// with every queued frame discarded (which wakes the PE's fleet host to
// close its jobs' inboxes, acting on nothing more) — on the first frame
// that PE sends past killAfter once it has been sent a KSpawn, and
// puts a KDown notice in the driver's mailbox, exactly the observable
// shape of a worker process dying mid-run with its socket resetting. The
// count advances on data frames and KAcks (probe answers and idle reports)
// only: acks tick every round even on a PE whose work is entirely local,
// and both stop once termination is detected — steal polling and dump
// segments don't count — so the kill lands mid-run, not in the result
// gather. Waiting for the first KSpawn puts the kill on a PE that holds
// work: an idle PE counts its reports while the entry SP runs, and could
// otherwise die before any fan-out reached it.
//
// replace installs a fresh inbox table for a PE and returns a new endpoint
// bound to it, for the PE's re-homed host. The dead endpoint keeps
// pointing at its orphaned table, so a zombie worker can neither consume
// the replacement's messages nor have its own heard (senders resolve
// tables at send time, under the lock).
type chanTransport struct {
	mu      sync.RWMutex
	ins     []*inboxTable
	latency time.Duration

	killPE    int   // PE to fault-inject; -1 disarmed
	killAfter int64 // worker-to-worker frames it may send first
	killSent  atomic.Int64
	assigned  atomic.Bool // killPE has been sent a KSpawn
	killed    atomic.Bool
}

// chanEndpoint is the send side of one party on a chanTransport; the party
// receives from in, the inbox table current at the endpoint's creation.
// Sends resolve the target's table per send, so replacement takes effect
// for everyone at once.
// dead is atomic because a fleet host shares one endpoint across every
// job's worker goroutine: the kill can fire inside one job's send while
// another job is mid-send.
type chanEndpoint struct {
	net  *chanTransport
	self int
	in   *inboxTable
	dead atomic.Bool // fault injection fired: the "machine" is off
}

// newChanNet builds the transport for n workers plus the driver (index n).
// latency, when non-zero, is injected on every hop. The fault injector
// starts disarmed.
func newChanNet(n int, latency time.Duration) *chanTransport {
	t := &chanTransport{ins: make([]*inboxTable, n+1), latency: latency, killPE: -1}
	for i := range t.ins {
		t.ins[i] = newInboxTable(latency)
	}
	return t
}

// arm arms the fault injector: PE pe dies on the first frame it sends past
// after. Sends read the setting without a lock, so arm must precede the
// first frame: a test arms a fleet's transport before its first Submit.
func (t *chanTransport) arm(pe int, after int64) {
	t.killPE, t.killAfter = pe, after
}

// endpoint returns endpoint i bound to its current inbox table.
func (t *chanTransport) endpoint(i int) *chanEndpoint {
	return &chanEndpoint{net: t, self: i, in: t.ins[i]}
}

// replace installs a fresh inbox table for pe — dropping whatever
// undelivered frames the dead host had queued — and returns the
// replacement's endpoint (never fault-injected: the kill fires once).
func (t *chanTransport) replace(pe int) *chanEndpoint {
	in := newInboxTable(t.latency)
	t.mu.Lock()
	t.ins[pe] = in
	t.mu.Unlock()
	return &chanEndpoint{net: t, self: pe, in: in}
}

func (e *chanEndpoint) Send(to int, m *Msg) error {
	if e.dead.Load() {
		return ErrClosed
	}
	t := e.net
	if to < 0 || to >= len(t.ins) {
		return fmt.Errorf("cluster: send to unknown endpoint %d", to)
	}
	driver := len(t.ins) - 1
	if to == t.killPE && m.Kind == KSpawn {
		t.assigned.Store(true)
	}
	if e.self == t.killPE && (m.Kind.isData() || m.Kind == KAck) && !t.killed.Load() {
		if t.killSent.Add(1) > t.killAfter && t.assigned.Load() && t.killed.CompareAndSwap(false, true) {
			// The fault fires: this frame is lost on the wire, the endpoint
			// goes dark, and the driver hears the "connection reset".
			e.dead.Store(true)
			e.in.box.sever()
			t.mu.RLock()
			in := t.ins[driver]
			t.mu.RUnlock()
			in.put(newMsg(Msg{Kind: KDown, From: int32(e.self)}))
			return ErrClosed
		}
	}
	m.From = int32(e.self)
	t.mu.RLock()
	in := t.ins[to]
	t.mu.RUnlock()
	in.put(m)
	return nil
}

func (e *chanEndpoint) Close() error {
	e.in.box.close()
	return nil
}
