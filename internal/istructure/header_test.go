package istructure

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func mustHeader(t *testing.T, dims []int, pageElems, numPEs int) *Header {
	t.Helper()
	h, err := NewHeader(1, "A", dims, pageElems, numPEs, 0, true)
	if err != nil {
		t.Fatalf("NewHeader: %v", err)
	}
	return h
}

// TestPaperPartitioningExample reproduces the paper's §4.1 example: a 6×256
// array over 4 PEs with 32-element pages has 1536 elements, 48 pages,
// 12 pages per PE.
func TestPaperPartitioningExample(t *testing.T) {
	h := mustHeader(t, []int{6, 256}, 32, 4)
	if got := h.Elems(); got != 1536 {
		t.Fatalf("Elems = %d, want 1536", got)
	}
	if got := h.Pages(); got != 48 {
		t.Fatalf("Pages = %d, want 48", got)
	}
	for pe := 0; pe < 4; pe++ {
		lo, hi := h.SegmentPages(pe)
		if hi-lo != 12 {
			t.Errorf("PE%d: %d pages, want 12", pe, hi-lo)
		}
		if lo != pe*12 {
			t.Errorf("PE%d: segment starts at page %d, want %d", pe, lo, pe*12)
		}
	}
}

// TestPaperRowResponsibility checks the Figure 6 index-space partitioning:
// with the first-element rule, PE1 (index 0) is responsible for rows 1-2,
// PE2 for row 3, PE3 for rows 4, PE4 for rows 5-6... The paper's figure
// (0-based rows 0..5): PE1 owns rows 0,1; PE2 row 2; PE3 rows 3,4(start);
// we verify the rule directly: responsibility goes to the PE holding the
// row's first element, and responsibilities are a disjoint cover.
func TestPaperRowResponsibility(t *testing.T) {
	h := mustHeader(t, []int{6, 256}, 32, 4)
	// Each PE owns elements [pe*384, (pe+1)*384). Row r starts at r*256.
	// Row starts: 0,256,512,768,1024,1280 → owners 0,0,1,2,2,3.
	wantOwner := []int{0, 0, 1, 2, 2, 3}
	for r := 0; r < 6; r++ {
		owner := h.OwnerOf(r * 256)
		if owner != wantOwner[r] {
			t.Errorf("row %d first-element owner = PE%d, want PE%d", r, owner, wantOwner[r])
		}
	}
	covered := make(map[int64]int)
	for pe := 0; pe < 4; pe++ {
		lo, hi, ok := h.OwnedRows(pe)
		if !ok {
			continue
		}
		for r := lo; r <= hi; r++ {
			if prev, dup := covered[r]; dup {
				t.Fatalf("row %d assigned to both PE%d and PE%d", r, prev, pe)
			}
			covered[r] = pe
		}
	}
	if len(covered) != 6 {
		t.Fatalf("rows covered = %d, want 6", len(covered))
	}
	// Spot-check against the first-element rule.
	for r := 1; r <= 6; r++ {
		if covered[int64(r)] != wantOwner[r-1] {
			t.Errorf("row %d responsible PE = %d, want %d", r, covered[int64(r)], wantOwner[r-1])
		}
	}
}

// TestFigure5InnerRange checks the in-row (j) ranges of Figure 4/5: "the RF
// in PE1 produces the j range 0:255 when i is 0 but only 0:127 when i is 1"
// (paper uses 0-based indices; ours are 1-based).
func TestFigure5InnerRange(t *testing.T) {
	h := mustHeader(t, []int{6, 256}, 32, 4)
	lo, hi, ok := h.OwnedCols(0, 1) // PE1, row i=1 (paper's i=0)
	if !ok || lo != 1 || hi != 256 {
		t.Errorf("PE0 row1: [%d,%d] ok=%v, want [1,256]", lo, hi, ok)
	}
	lo, hi, ok = h.OwnedCols(0, 2) // PE1, row i=2 (paper's i=1): first half
	if !ok || lo != 1 || hi != 128 {
		t.Errorf("PE0 row2: [%d,%d] ok=%v, want [1,128]", lo, hi, ok)
	}
	lo, hi, ok = h.OwnedCols(1, 2) // PE2 holds the second half of row 2
	if !ok || lo != 129 || hi != 256 {
		t.Errorf("PE1 row2: [%d,%d] ok=%v, want [129,256]", lo, hi, ok)
	}
}

func TestOffsetRowMajor(t *testing.T) {
	h := mustHeader(t, []int{4, 5}, 32, 2)
	off, err := h.Offset([]int64{1, 1})
	if err != nil || off != 0 {
		t.Fatalf("Offset(1,1) = %d, %v", off, err)
	}
	off, err = h.Offset([]int64{2, 3})
	if err != nil || off != 7 {
		t.Fatalf("Offset(2,3) = %d, %v; want 7", off, err)
	}
	if _, err = h.Offset([]int64{5, 1}); err == nil {
		t.Fatal("Offset(5,1) should be out of bounds")
	}
	if _, err = h.Offset([]int64{0, 1}); err == nil {
		t.Fatal("Offset(0,1) should be out of bounds (1-based)")
	}
	var be *BoundsError
	_, err = h.Offset([]int64{1, 99})
	if be, _ = err.(*BoundsError); be == nil {
		t.Fatalf("want *BoundsError, got %v", err)
	}
}

// TestSegmentsTileElements property: for random geometries, per-PE element
// segments are disjoint and cover all elements; OwnerOf agrees with the
// segment containing the offset.
func TestSegmentsTileElements(t *testing.T) {
	f := func(rowsU, colsU, pesU, pageU uint8) bool {
		rows := int(rowsU%40) + 1
		cols := int(colsU%70) + 1
		pes := int(pesU%32) + 1
		page := []int{4, 8, 16, 32}[int(pageU)%4]
		h, err := NewHeader(1, "A", []int{rows, cols}, page, pes, 0, true)
		if err != nil {
			return false
		}
		total := 0
		prevHi := 0
		for pe := 0; pe < pes; pe++ {
			lo, hi := h.SegmentElems(pe)
			if lo != prevHi && lo < hi {
				return false
			}
			if lo < hi {
				prevHi = hi
				total += hi - lo
			}
		}
		if total != h.Elems() {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			off := rand.Intn(h.Elems())
			owner := h.OwnerOf(off)
			lo, hi := h.SegmentElems(owner)
			if off < lo || off >= hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestOwnedRowsDisjointCover property: row responsibilities tile [1, rows].
func TestOwnedRowsDisjointCover(t *testing.T) {
	f := func(rowsU, colsU, pesU uint8) bool {
		rows := int(rowsU%64) + 1
		cols := int(colsU%64) + 1
		pes := int(pesU%32) + 1
		h, err := NewHeader(1, "A", []int{rows, cols}, 32, pes, 0, true)
		if err != nil {
			return false
		}
		next := int64(1)
		for pe := 0; pe < pes; pe++ {
			lo, hi, ok := h.OwnedRows(pe)
			if !ok {
				continue
			}
			if lo != next || hi < lo {
				return false
			}
			next = hi + 1
		}
		return next == int64(rows)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOwnedColsTileRows property: for every row, per-PE column ranges tile
// [1, cols].
func TestOwnedColsTileRows(t *testing.T) {
	f := func(rowsU, colsU, pesU uint8) bool {
		rows := int(rowsU%20) + 1
		cols := int(colsU%50) + 1
		pes := int(pesU%16) + 1
		h, err := NewHeader(1, "A", []int{rows, cols}, 16, pes, 0, true)
		if err != nil {
			return false
		}
		for r := int64(1); r <= int64(rows); r++ {
			next := int64(1)
			for pe := 0; pe < pes; pe++ {
				lo, hi, ok := h.OwnedCols(pe, r)
				if !ok {
					continue
				}
				if lo != next || hi < lo {
					return false
				}
				next = hi + 1
			}
			if next != int64(cols)+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalArrayAllOnOrigin(t *testing.T) {
	h, err := NewHeader(7, "loc", []int{10}, 32, 4, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < 4; pe++ {
		lo, hi := h.SegmentElems(pe)
		if pe == 2 {
			if lo != 0 || hi != 10 {
				t.Errorf("origin PE2 segment [%d,%d), want [0,10)", lo, hi)
			}
		} else if lo != hi {
			t.Errorf("PE%d segment [%d,%d), want empty", pe, lo, hi)
		}
	}
	if h.OwnerOf(5) != 2 {
		t.Errorf("OwnerOf(5) = %d, want origin 2", h.OwnerOf(5))
	}
}

func TestOneDimensionalOwnership(t *testing.T) {
	h := mustHeader(t, []int{100}, 32, 3) // 100 elems, 4 pages: 2,1,1
	lo, hi := h.SegmentPages(0)
	if hi-lo != 2 {
		t.Fatalf("PE0 pages = %d, want 2 (4 pages over 3 PEs)", hi-lo)
	}
	clo, chi, ok := h.OwnedCols(0, 1)
	if !ok || clo != 1 || chi != 64 {
		t.Errorf("PE0 1-D owned = [%d,%d] ok=%v, want [1,64]", clo, chi, ok)
	}
	clo, chi, ok = h.OwnedCols(2, 1)
	if !ok || clo != 97 || chi != 100 {
		t.Errorf("PE2 1-D owned = [%d,%d] ok=%v, want [97,100]", clo, chi, ok)
	}
}

func TestHeaderValidation(t *testing.T) {
	if _, err := NewHeader(1, "x", nil, 32, 4, 0, true); err == nil {
		t.Error("nil dims should fail")
	}
	if _, err := NewHeader(1, "x", []int{1, 2, 3}, 32, 4, 0, true); err == nil {
		t.Error("3-D should fail")
	}
	if _, err := NewHeader(1, "x", []int{0}, 32, 4, 0, true); err == nil {
		t.Error("zero extent should fail")
	}
	if _, err := NewHeader(1, "x", []int{4}, 32, 4, 9, true); err == nil {
		t.Error("origin out of range should fail")
	}
	if h, err := NewHeader(1, "x", []int{4}, 0, 4, 0, true); err != nil || h.PageElems != 32 {
		t.Errorf("pageElems 0 should default to 32: %v %+v", err, h)
	}
	// Offsets must stay 32-bit numbers, the range the reciprocals cover.
	if _, err := NewHeader(1, "x", []int{1 << 16, 1 << 15}, 32, 4, 0, true); err == nil {
		t.Error("2^31 elements should fail")
	}
	if _, err := NewHeader(1, "x", []int{1 << 16, 1<<15 - 1}, 32, 4, 0, true); err != nil {
		t.Errorf("2^31 - 2^16 elements: %v", err)
	}
	if _, err := NewHeader(1, "x", []int{4}, 1<<31, 4, 0, true); err == nil {
		t.Error("a 2^31-element page should fail")
	}
}

// The geometry NewHeader precomputes, as the formulas it replaced: every
// call re-derives element count, page count and the segment split from the
// exported fields alone.
func formulaElems(h *Header) int {
	n := 1
	for _, d := range h.Dims {
		n *= d
	}
	return n
}

func formulaPages(h *Header) int { return (formulaElems(h) + h.PageElems - 1) / h.PageElems }

func formulaPageLo(h *Header, pe int) int {
	pages := formulaPages(h)
	q, r := pages/h.NumPEs, pages%h.NumPEs
	if pe <= r {
		return pe * (q + 1)
	}
	return r*(q+1) + (pe-r)*q
}

func formulaSegmentElems(h *Header, pe int) (lo, hi int) {
	plo, phi := 0, 0
	switch {
	case h.Dist:
		plo, phi = formulaPageLo(h, pe), formulaPageLo(h, pe+1)
	case pe == h.Origin:
		phi = formulaPages(h)
	}
	lo, hi = plo*h.PageElems, min(phi*h.PageElems, formulaElems(h))
	return min(lo, hi), hi
}

func formulaOwnerOf(h *Header, off int) int {
	if !h.Dist {
		return h.Origin
	}
	page, pages := off/h.PageElems, formulaPages(h)
	q, r := pages/h.NumPEs, pages%h.NumPEs
	if cut := r * (q + 1); page >= cut {
		return r + (page-cut)/q
	}
	return page / (q + 1)
}

func formulaOwnedRows(h *Header, pe int) (lo, hi int64, ok bool) {
	rowLen := 1
	if len(h.Dims) == 2 {
		rowLen = h.Dims[1]
	}
	elo, ehi := formulaSegmentElems(h, pe)
	if elo >= ehi {
		return 0, 0, false
	}
	first, last := (elo+rowLen-1)/rowLen, min((ehi-1)/rowLen, h.Dims[0]-1)
	if first > last {
		return 0, 0, false
	}
	return int64(first + 1), int64(last + 1), true
}

// TestPrecomputedGeometryMatchesFormulas: for every array of up to 600
// elements (1-D, and 2-D over a spread of row lengths), page size, PE count
// and distribution mode, the precomputed OwnerOf / SegmentElems / PageOf /
// OwnedRows equal the formula versions — and an offset lies in a PE's
// segment exactly when that PE owns it, the equivalence the executors use
// to skip OwnerOf on local accesses.
func TestPrecomputedGeometryMatchesFormulas(t *testing.T) {
	var shapes [][]int
	for n := 1; n <= 600; n++ {
		shapes = append(shapes, []int{n})
	}
	for _, cols := range []int{1, 2, 3, 7, 8, 24, 32, 33} {
		for rows := 1; rows*cols <= 600; rows++ {
			shapes = append(shapes, []int{rows, cols})
		}
	}
	for _, dims := range shapes {
		for _, pageElems := range []int{1, 3, 8, 32} {
			for numPEs := 1; numPEs <= 9; numPEs++ {
				for _, dist := range []bool{true, false} {
					h, err := NewHeader(1, "A", dims, pageElems, numPEs, numPEs/2, dist)
					if err != nil {
						t.Fatal(err)
					}
					if h.Elems() != formulaElems(h) || h.Pages() != formulaPages(h) {
						t.Fatalf("%v page %d pes %d: Elems/Pages = %d/%d, formulas give %d/%d",
							dims, pageElems, numPEs, h.Elems(), h.Pages(), formulaElems(h), formulaPages(h))
					}
					for pe := 0; pe < numPEs; pe++ {
						lo, hi := h.SegmentElems(pe)
						if flo, fhi := formulaSegmentElems(h, pe); lo != flo || hi != fhi {
							t.Fatalf("%v page %d pes %d dist %v: SegmentElems(%d) = [%d,%d), formula [%d,%d)",
								dims, pageElems, numPEs, dist, pe, lo, hi, flo, fhi)
						}
						rlo, rhi, ok := h.OwnedRows(pe)
						if flo, fhi, fok := formulaOwnedRows(h, pe); rlo != flo || rhi != fhi || ok != fok {
							t.Fatalf("%v page %d pes %d dist %v: OwnedRows(%d) = %d..%d %v, formula %d..%d %v",
								dims, pageElems, numPEs, dist, pe, rlo, rhi, ok, flo, fhi, fok)
						}
						for off := lo; off < hi; off++ {
							if h.OwnerOf(off) != pe {
								t.Fatalf("%v page %d pes %d dist %v: offset %d is in PE %d's segment but owned by %d",
									dims, pageElems, numPEs, dist, off, pe, h.OwnerOf(off))
							}
						}
					}
					for off := 0; off < h.Elems(); off++ {
						if got, want := h.OwnerOf(off), formulaOwnerOf(h, off); got != want {
							t.Fatalf("%v page %d pes %d dist %v: OwnerOf(%d) = %d, formula %d",
								dims, pageElems, numPEs, dist, off, got, want)
						}
						if got, want := h.PageOf(off), off/pageElems; got != want {
							t.Fatalf("%v page %d: PageOf(%d) = %d, want %d", dims, pageElems, off, got, want)
						}
					}
				}
			}
		}
	}
}

// TestOffsetOfMatchesOffset: the frame-slot form agrees with the index-
// slice form on every in-range and out-of-range index, down to the error.
func TestOffsetOfMatchesOffset(t *testing.T) {
	for _, dims := range [][]int{{7}, {1}, {5, 3}, {3, 5}, {1, 1}} {
		h := mustHeader(t, dims, 8, 2)
		frame := make([]isa.Value, 4)
		slots := []int{3, 1}[:len(dims)]
		idx := make([]int64, len(dims))
		var walk func(d int)
		walk = func(d int) {
			if d == len(dims) {
				want, wantErr := h.Offset(idx)
				got, gotErr := h.OffsetOf(frame, slots)
				if got != want || (gotErr == nil) != (wantErr == nil) ||
					gotErr != nil && gotErr.Error() != wantErr.Error() {
					t.Fatalf("dims %v idx %v: OffsetOf = %d, %v; Offset = %d, %v", dims, idx, got, gotErr, want, wantErr)
				}
				return
			}
			for i := int64(-1); i <= int64(dims[d])+2; i++ {
				idx[d] = i
				frame[slots[d]] = isa.Int(i)
				if i == 2 {
					frame[slots[d]] = isa.Float(2.75) // indices truncate like every AsInt
				}
				walk(d + 1)
			}
		}
		walk(0)
		if _, err := h.OffsetOf(frame, []int{0, 1, 2}[:3-len(dims)]); err == nil {
			t.Errorf("dims %v: OffsetOf accepted %d indices", dims, 3-len(dims))
		}
	}
}

// TestReciprocalDivisionExact: the reciprocal divisions equal plain integer
// division. PageOf, OwnerOf and SegmentElems agree with the division
// formulas at every offset of arrays of 1, 2, 4, 9 and 40 pages and a
// ragged last page, for page sizes 1-130 (1, the powers of two and the
// primes among them), on 1-9 PEs, distributed and local; PageOf also at
// the largest offset a frame's int32 Off can carry. The divisor itself is
// checked at the multiples of d and their neighbours up to 2^31-1, for
// small d and for d near 2^30 and 2^31.
func TestReciprocalDivisionExact(t *testing.T) {
	for pageElems := 1; pageElems <= 130; pageElems++ {
		for numPEs := 1; numPEs <= 9; numPEs++ {
			for _, pages := range []int{1, 2, 4, 9, 40} {
				for _, dist := range []bool{true, false} {
					n := pages*pageElems - pageElems/2
					h, err := NewHeader(1, "A", []int{n}, pageElems, numPEs, numPEs-1, dist)
					if err != nil {
						t.Fatal(err)
					}
					for pe := 0; pe < numPEs; pe++ {
						lo, hi := h.SegmentElems(pe)
						if flo, fhi := formulaSegmentElems(h, pe); lo != flo || hi != fhi {
							t.Fatalf("%d elems, page %d, %d PEs, dist %v: SegmentElems(%d) = [%d,%d), division gives [%d,%d)",
								n, pageElems, numPEs, dist, pe, lo, hi, flo, fhi)
						}
					}
					for off := 0; off < n; off++ {
						if e := divisionMismatch(h, off); e != "" {
							t.Fatal(e)
						}
					}
					if got, want := h.PageOf(math.MaxInt32), math.MaxInt32/pageElems; got != want {
						t.Fatalf("page %d: PageOf(MaxInt32) = %d, want %d", pageElems, got, want)
					}
				}
			}
		}
	}
	for _, d := range []uint64{1, 2, 3, 7, 10, 64, 127, 130, 1<<30 + 3, 1<<31 - 19, math.MaxInt32} {
		m := newDivisor(int(d))
		for _, k := range []uint64{0, 1, 2, 3, 1000, math.MaxInt32 / d, math.MaxInt32/d - 1} {
			for _, n := range []uint64{k * d, k*d - 1, k*d + 1, k*d + d - 1, math.MaxInt32} {
				if n > math.MaxInt32 {
					continue
				}
				if got := m.div(int(n)); got != int(n/d) {
					t.Fatalf("%d/%d = %d by reciprocal, want %d", n, d, got, n/d)
				}
			}
		}
	}
}

// divisionMismatch reports where PageOf or OwnerOf at off differs from
// plain division, or "".
func divisionMismatch(h *Header, off int) string {
	if got, want := h.PageOf(off), off/h.PageElems; got != want {
		return fmt.Sprintf("%d elems, page %d: PageOf(%d) = %d, want %d", h.Elems(), h.PageElems, off, got, want)
	}
	if got, want := h.OwnerOf(off), formulaOwnerOf(h, off); got != want {
		return fmt.Sprintf("%d elems, page %d, %d PEs, dist %v: OwnerOf(%d) = %d, division gives %d",
			h.Elems(), h.PageElems, h.NumPEs, h.Dist, off, got, want)
	}
	return ""
}
