package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEventQueueOrder checks that random interleavings of pushes and pops
// come out in (t, seq) order, against a stable sort as the reference. Times
// are drawn from a handful of values, so most comparisons are decided by seq.
func TestEventQueueOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q eventQueue
		var ref []event // the pending events, in push order
		var seq, floor int64
		popMin := func() {
			sort.SliceStable(ref, func(i, j int) bool { return ref[i].t < ref[j].t })
			want := ref[0]
			ref = ref[1:]
			if got := q.pop(); got != want {
				t.Fatalf("seed %d: popped %+v, want %+v", seed, got, want)
			}
			floor = want.t
		}
		for op := 0; op < 5000; op++ {
			if len(ref) > 0 && rng.Intn(100) < 45 {
				popMin()
				continue
			}
			seq++
			e := event{t: floor + int64(rng.Intn(6)), seq: seq, rec: int32(rng.Intn(1 << 20)), kind: evKind(rng.Intn(14))}
			q.push(e)
			ref = append(ref, e)
		}
		for len(ref) > 0 {
			popMin()
		}
		if len(q) != 0 {
			t.Fatalf("seed %d: %d events left in the queue", seed, len(q))
		}
	}
}

// BenchmarkSimEvent is one push and one pop with about 100 events pending,
// the mean queue depth of SIMPLE 64×64 on 32 PEs.
func BenchmarkSimEvent(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var q eventQueue
	var seq, now int64
	push := func() {
		seq++
		q.push(event{t: now + int64(rng.Intn(20_000)), seq: seq, kind: evToken})
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
