package sim

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// refQueue is the reference the event queue is checked against: the
// pending events in push order, popped by a stable minimum search.
type refQueue struct {
	pending []event
	last    int64 // the time of the latest pop
}

func (r *refQueue) push(e event) { r.pending = append(r.pending, e) }

// min returns the index of the earliest pending event, the first pushed
// among equal times.
func (r *refQueue) min() int {
	k := 0
	for i, e := range r.pending {
		if e.t < r.pending[k].t {
			k = i
		}
	}
	return k
}

func (r *refQueue) pop() event {
	k := r.min()
	e := r.pending[k]
	r.pending = append(r.pending[:k], r.pending[k+1:]...)
	r.last = e.t
	return e
}

func (r *refQueue) due(t int64) bool {
	return len(r.pending) > 0 && r.pending[r.min()].t <= t
}

// checkDue compares the queue's peek with the reference's around the
// earliest pending time and at probe.
func checkDue(t *testing.T, q *eventQueue, ref *refQueue, probe int64) {
	t.Helper()
	probes := []int64{ref.last, probe}
	if len(ref.pending) > 0 {
		m := ref.pending[ref.min()].t
		probes = append(probes, m-1, m)
	}
	for _, p := range probes {
		if got, want := q.due(p), ref.due(p); got != want {
			t.Fatalf("due(%d) = %v, want %v (last pop at %d, %d pending)", p, got, want, ref.last, len(ref.pending))
		}
	}
	if q.empty() != (len(ref.pending) == 0) {
		t.Fatalf("empty() = %v with %d pending", q.empty(), len(ref.pending))
	}
}

// TestEventQueueOrder checks that random interleavings of pushes, pops and
// peeks come out in (t, push order), against a stable minimum search as the
// reference. A push lands at the latest pop's time, at the time of a
// pending event (a tie decided by push order), or up to 2^40 later, so it
// can land in every bucket from 0 to 40, and the test checks that each one
// was used. rec numbers the pushes, so every event is distinct.
func TestEventQueueOrder(t *testing.T) {
	var used uint64 // bit i: a push went into bucket i
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref refQueue
		var pushes int32
		pop := func() {
			want := ref.pop()
			if got := q.pop(); got != want {
				t.Fatalf("seed %d: popped %+v, want %+v", seed, got, want)
			}
		}
		for op := 0; op < 5000; op++ {
			switch r := rng.Intn(100); {
			case r < 45 && len(ref.pending) > 0:
				pop()
			default:
				tm := ref.last
				switch {
				case r < 60 && len(ref.pending) > 0:
					tm = ref.pending[rng.Intn(len(ref.pending))].t
				case r < 90:
					tm += rng.Int63n(1 << rng.Intn(41))
				}
				used |= 1 << bits.Len64(uint64(tm^q.last))
				pushes++
				e := event{t: tm, rec: pushes, kind: evKind(rng.Intn(14))}
				q.push(e)
				ref.push(e)
			}
			checkDue(t, &q, &ref, ref.last+rng.Int63n(1<<rng.Intn(41)))
		}
		for len(ref.pending) > 0 {
			pop()
			checkDue(t, &q, &ref, ref.last+1)
		}
	}
	if want := uint64(1)<<41 - 1; used&want != want {
		t.Errorf("buckets used %#x, want every one of 0..40", used)
	}
}

// FuzzEventQueue decodes its input into pushes, pops and peeks and checks
// the queue against the reference. Each op is one byte: its low two bits
// pick pop, peek, push at a delta after the latest pop, or push at the time
// of a pending event (a tie); a delta is five bytes (40 bits) shifted right
// by the op byte's upper bits.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 0, 0, 3, 0, 0, 1, 0})
	f.Add([]byte{2, 255, 255, 255, 255, 255, 6, 1, 0, 0, 0, 0, 3, 7, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		delta := func(shift byte) int64 {
			var v int64
			for i := 0; i < 5; i++ {
				v = v<<8 | int64(next())
			}
			return v >> (shift % 41)
		}
		var q eventQueue
		var ref refQueue
		var pushes int32
		for len(data) > 0 {
			op := next()
			switch op & 3 {
			case 0:
				if len(ref.pending) == 0 {
					continue
				}
				if got, want := q.pop(), ref.pop(); got != want {
					t.Fatalf("popped %+v, want %+v", got, want)
				}
			case 1:
				checkDue(t, &q, &ref, ref.last+delta(op>>2))
				continue
			case 2, 3:
				tm := ref.last + delta(op>>2)
				if op&3 == 3 {
					tm = ref.last
					if n := len(ref.pending); n > 0 {
						tm = ref.pending[int(next())%n].t
					}
				}
				pushes++
				e := event{t: tm, rec: pushes}
				q.push(e)
				ref.push(e)
			}
			checkDue(t, &q, &ref, ref.last)
		}
		for len(ref.pending) > 0 {
			if got, want := q.pop(), ref.pop(); got != want {
				t.Fatalf("draining: popped %+v, want %+v", got, want)
			}
		}
		if !q.empty() {
			t.Fatal("the queue holds events the reference does not")
		}
	})
}

// TestEventSize pins an event at 16 bytes: the queue moves them by value.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 16 {
		t.Errorf("event is %d bytes, want 16", n)
	}
}

// TestAtRefusesThePast: the queue cannot hold an event earlier than its
// latest pop, so scheduling one fails the run at once and queues nothing.
func TestAtRefusesThePast(t *testing.T) {
	m, err := New(fillLoopProgram(), Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.at(100, evNone, 0)
	m.now = m.events.pop().t
	m.at(99, evNone, 0)
	if m.failed == nil || !strings.Contains(m.failed.Error(), "sim: time went backwards (99 < 100)") {
		t.Fatalf("failed = %v, want time went backwards", m.failed)
	}
	if !m.events.empty() {
		t.Error("the event in the past was queued")
	}
}

// BenchmarkSimEvent is one push and one pop with about 100 events pending,
// the mean queue depth of SIMPLE 64×64 on 32 PEs.
func BenchmarkSimEvent(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var q eventQueue
	var now int64
	push := func() {
		q.push(event{t: now + int64(rng.Intn(20_000)), kind: evToken})
	}
	for i := 0; i < 100; i++ {
		push()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push()
		now = q.pop().t
	}
}
