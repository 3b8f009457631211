package istructure

import (
	"fmt"
	"testing"

	"repro/internal/isa"
)

// Benchmarks for the shard operations on the executors' hot path (roadmap
// baseline layer (b)), through the per-array handle the cluster worker
// resolves once per access. One op is one element access.

const benchSide = 64 // a 64×64 array: 4096 elements, 128 pages of 32

var (
	benchSink      isa.Value
	benchArraySink *Array
)

// benchArray installs a benchSide² array on PE 0 of numPEs and returns the
// shard and the array's handle.
func benchArray(b *testing.B, numPEs int) (*Shard, *Array) {
	b.Helper()
	h, err := NewHeader(1, "A", []int{benchSide, benchSide}, 32, numPEs, 0, true)
	if err != nil {
		b.Fatal(err)
	}
	s := NewShard(0)
	if err := s.Install(h); err != nil {
		b.Fatal(err)
	}
	return s, s.Array(1)
}

// BenchmarkShardArray: the ID → handle lookup every access pays, rotating
// over 1, 4 and 16 arrays minted by two PEs, the way SIMPLE's loops move
// from array to array on consecutive accesses.
func BenchmarkShardArray(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("arrays=%d", k), func(b *testing.B) {
			s := NewShard(0)
			ids := make([]int64, k)
			for i := range ids {
				pe := i % 2
				ids[i] = PackID(1, pe, int64(i/2+1))
				h, err := NewHeader(ids[i], "A", []int{64}, 32, 2, pe, true)
				if err != nil {
					b.Fatal(err)
				}
				if err := s.Install(h); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i++ {
				benchArraySink = s.Array(ids[j])
				if j++; j == k {
					j = 0
				}
			}
		})
	}
}

// BenchmarkShardReadLocal: a read of an owned, present element.
func BenchmarkShardReadLocal(b *testing.B) {
	_, a := benchArray(b, 1)
	n := a.Header().Elems()
	for off := 0; off < n; off++ {
		if _, _, err := a.Write(off, isa.Float(float64(off))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, off := 0, 0; i < b.N; i++ {
		benchSink, _ = a.ReadLocal(off, Waiter{})
		if off++; off == n {
			off = 0
		}
	}
}

// BenchmarkShardWrite: a write of an owned element with no reader waiting.
// Single assignment allows each element one write, so a fresh array is
// installed (off the clock) every time the current one fills up.
func BenchmarkShardWrite(b *testing.B) {
	_, a := benchArray(b, 1)
	n := a.Header().Elems()
	b.ReportAllocs()
	b.ResetTimer()
	for i, off := 0, 0; i < b.N; i++ {
		if _, _, err := a.Write(off, isa.Float(1)); err != nil {
			b.Fatal(err)
		}
		if off++; off == n {
			b.StopTimer()
			_, a = benchArray(b, 1)
			off = 0
			b.StartTimer()
		}
	}
}

// BenchmarkShardCacheLookup: a remote read served by a resident cached page.
func BenchmarkShardCacheLookup(b *testing.B) {
	_, a := benchArray(b, 2)
	h := a.Header()
	lo, hi := h.SegmentElems(1)
	for off := lo; off < hi; off += h.PageElems {
		pg := &CachedPage{Vals: make([]isa.Value, h.PageElems), Set: make([]bool, h.PageElems)}
		for j := range pg.Vals {
			pg.Vals[j], pg.Set[j] = isa.Float(float64(off+j)), true
		}
		a.InstallPage(h.PageOf(off), pg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i, off := 0, lo; i < b.N; i++ {
		v, _, hit := a.CacheLookup(off)
		if hit {
			hits++
		}
		benchSink = v
		if off++; off == hi {
			off = lo
		}
	}
	if hits != b.N {
		b.Fatalf("%d of %d lookups hit a fully cached segment", hits, b.N)
	}
}

// BenchmarkShardExtractPage: the owner's side of a page shipment. One op is
// one page extract. A full page ships as a view of the segment; a partial
// page (here, each page's last element unwritten) is copied.
func BenchmarkShardExtractPage(b *testing.B) {
	for _, tc := range []struct {
		name string
		skip int // pages keep element skip unwritten; -1 writes every element
	}{{"full", -1}, {"partial", 31}} {
		b.Run(tc.name, func(b *testing.B) {
			_, a := benchArray(b, 1)
			h := a.Header()
			for off := 0; off < h.Elems(); off++ {
				if off%h.PageElems == tc.skip {
					continue
				}
				if _, _, err := a.Write(off, isa.Float(float64(off))); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i, off := 0, 0; i < b.N; i++ {
				if _, _, _, err := a.ExtractPage(off); err != nil {
					b.Fatal(err)
				}
				if off += h.PageElems; off >= h.Elems() {
					off = 0
				}
			}
		})
	}
}

// BenchmarkShardScan: the scan detector's update, which the cluster's heat
// layer pays on every read.
func BenchmarkShardScan(b *testing.B) {
	_, a := benchArray(b, 1)
	pages := a.Header().Pages()
	b.ReportAllocs()
	b.ResetTimer()
	for i, page := 0, 0; i < b.N; i++ {
		a.Scan(page)
		if page++; page == pages {
			page = 0
		}
	}
}
