package cluster

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
)

// Tests for the in-flight page table (istore.go): a remote read of a page
// already requested waits locally instead of asking again. Each case is a
// small program on two hand-pumped workers, shaped so that one PE (the
// reader) reads several elements of a page the other PE (the owner) holds
// before it consumes any of them. The pumped schedule is deterministic, so
// every count is pinned, and every run gathers arrays bit-for-bit the
// simulator's.

// pageTableReads is the counts a pinned case states: the reader's misses
// (reads that sent a request), joins (reads that waited on one) and
// re-asks (joined reads that asked the owner after the page lacked their
// element), and the pages and tokens the owner sent back.
type pageTableReads struct {
	misses, joins, reasks int64
	pages, tokens         int64
}

func TestInflightPageTable(t *testing.T) {
	intArg := func(n int) []isa.Value { return []isa.Value{isa.Int(int64(n))} }
	cases := []struct {
		name          string
		src           string
		n             int
		heat          bool
		reader, owner int
		want          pageTableReads
	}{
		// PE 1's loop copy reads A[1..4], all present, from PE 0's page:
		// one request, three joins, and the one page delivers all four.
		// Every later iteration hits the cache.
		{"k reads of a present page send one request", `
func main(n: int) {
	A = array(4);
	A[1] = 1.5;
	A[2] = 2.5;
	A[3] = 3.5;
	A[4] = 4.5;
	B = array(n);
	for i = 1 to n {
		a = A[1];
		b = A[2];
		c = A[3];
		d = A[4];
		B[i] = a + b + c + d + float(i);
	}
}
`, 16, false, 1, 0, pageTableReads{misses: 1, joins: 3, pages: 1}},

		// PE 1 reads A before main writes it (main waits for G first). Its
		// first leader finds A[1] absent: PE 0 queues the read and still
		// ships the all-absent page, on which the three joiners re-ask once
		// each and are queued too; the four queued reads get their tokens
		// once A is written. The next iteration's leader finds the cached
		// page lacking its element, asks again, and that page delivers its
		// three joiners. Pages: 2 leaders + 3 re-asks.
		{"absent leader and absent joiners", `
func main(n: int) {
	A = array(4);
	G = array(n);
	B = array(n);
	for i = 1 to n {
		G[i] = float(i);
	}
	for i2 = 1 to n {
		a = A[1];
		b = A[2];
		c = A[3];
		d = A[4];
		B[i2] = a + b + c + d + float(i2);
	}
	s = 0.0;
	for r = 1 to n {
		next s = s + G[r];
	}
	A[1] = s;
	A[2] = s + 1.0;
	A[3] = s + 2.0;
	A[4] = s + 3.0;
}
`, 16, false, 1, 0, pageTableReads{misses: 2, joins: 6, reasks: 3, pages: 5, tokens: 4}},

		// PE 0 reads X[25], X[33] and X[41] — pages 3, 4 and 5, all PE 1's
		// — before X is written. The read of page 4 completes a two-page
		// scan, so heat prefetches page 5, and the read of X[41] finds only
		// that prefetch in flight: it sends its own request instead of
		// joining. PE 1 drops the all-absent prefetch (no page goes back for
		// it), so a read that had joined it would wait forever.
		{"a demand read of a prefetch-only page asks itself", `
func main(n: int) {
	X = array(n);
	for j = 1 to n {
		X[j] = float(j);
	}
	B = array(n);
	for i = 1 to 8 {
		B[i] = X[i + 24] + X[i + 32] + X[i + 40];
	}
}
`, 48, true, 0, 1, pageTableReads{misses: 5, pages: 5, tokens: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := kernels.Kernel{Name: "pagetable", Source: tc.src, Args: intArg, Arrays: []string{"B"}}
			wantVals, wantMasks := simArraysMasked(t, compile(t, k.File(), k.Source), 2, k.Arrays, k.Args(tc.n)...)
			pinTwice(t, tc.name, tc.want, func() pageTableReads {
				ws, arrays := pumpedRun(t, k, tc.n, 2, Config{Heat: tc.heat}, nil, nil)
				checkGathered(t, arrays, wantVals, wantMasks)
				c := ws[tc.reader].counters()
				reader, owner := ws[tc.reader].ep.(*countingEP), ws[tc.owner].ep.(*countingEP)
				return pageTableReads{
					misses: c.CacheMisses,
					joins:  c.ReadJoins,
					reasks: reader.sent[KReadReq] - c.CacheMisses - c.Prefetches,
					pages:  owner.sent[KPage],
					tokens: owner.sent[KToken],
				}
			})
		})
	}
}

// TestMatmulPageTableCounts pins matmul n=16 on eight pumped workers
// (8-element pages, unbounded cache). The parent of the page table sent
// 511 messages for 238 misses. On this schedule a KPage always lands before
// the requester's next step, so no read ever finds its page in flight: 0
// joins, the same 238 misses, and 14 more messages — the page snapshots
// now shipped with the reads the owners queue as deferred. The joins show
// on free-running schedules, where pages stay in flight (the kill sweep's
// unkilled runs and the benchmark's cluster.cache_misses).
func TestMatmulPageTableCounts(t *testing.T) {
	k, _ := kernels.ByName("matmul")
	type counts struct{ sent, misses, joins int64 }
	pinTwice(t, "matmul@8", counts{525, 238, 0}, func() counts {
		ws, _ := pumpedRun(t, k, 16, 8, Config{}, nil, nil)
		var c counts
		for _, w := range ws {
			x := w.counters()
			c.sent, c.misses, c.joins = c.sent+x.MsgsSent, c.misses+x.CacheMisses, c.joins+x.ReadJoins
		}
		return c
	})
}
