// Package istructure implements the paper's single-assignment array memory:
// I-structures with presence bits and deferred reads (§2, §5.1), row-major
// paging, segment-per-PE partitioning with the first-element row-ownership
// rule (§4.1, §4.2.3), and the software page cache used for remote reads
// (§4, "remote data caching").
package istructure

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/timing"
)

// Header is the array header built on every PE when an array is allocated:
// "the array dimensions and, for each dimension, the starting and ending
// indices", plus the paging/partitioning geometry each PE needs to locate
// owners and answer Range-Filter queries (§4.1).
//
// Arrays are 1-based along every dimension (Idlite convention, matching the
// paper's examples "for i = 1 to 50").
type Header struct {
	ID        int64
	Name      string
	Dims      []int // extent of each dimension
	PageElems int   // page size in elements
	NumPEs    int   // number of segments
	Dist      bool  // distributed (true) or purely local to Origin
	Origin    int   // allocating PE (owner of everything when !Dist)

	// Geometry derived from the fields above, computed once by NewHeader
	// (the only constructor; the exported fields are never changed
	// afterwards): element and page counts, the row stride, and the
	// segment split — the first r segments hold q+1 pages, the rest q,
	// and cut = r*(q+1) is the first page of the q-page segments — with
	// the reciprocals that divide by the page size, q and q+1.
	elems, pages         int
	rowLen               int
	q, r, cut            int
	pageDiv, qDiv, q1Div divisor
}

// maxElems bounds an array's element count so that every offset fits the
// int32 the cluster's frames carry it in: the range over which the
// reciprocal divisions are exact.
const maxElems = math.MaxInt32

// divisor divides an offset-sized numerator, 0 <= n < 2^31, by a fixed d
// in [1, 2^31) with one 64-bit multiply and a shift instead of an integer
// divide (Lemire, Kaser and Kurz, "Faster Remainder by Direct Computation",
// 2019, Theorem 1). With L = ceil(log2 d) and F = 31 + L it holds
// c = ceil(2^F / d) and computes n/d = floor(c·n / 2^F). That is exact:
// c·d - 2^F = e < d, so c·n overshoots n·2^F/d by e·n < d·2^31 <= 2^F,
// less than the 1/d that separates n/d from the next integer after the
// shift. c <= 2^32, so c·n < 2^63 never overflows. d = 1 and the powers of
// two take the same path (c = 2^31).
type divisor struct {
	mul   uint64
	shift uint8
}

func newDivisor(d int) divisor {
	f := 31 + bits.Len64(uint64(d-1))
	return divisor{mul: (1<<f + uint64(d) - 1) / uint64(d), shift: uint8(f)}
}

// div returns n/d for 0 <= n < 2^31.
func (m divisor) div(n int) int { return int(uint64(n) * m.mul >> m.shift) }

// NewHeader validates the geometry and builds a header.
func NewHeader(id int64, name string, dims []int, pageElems, numPEs, origin int, dist bool) (*Header, error) {
	if len(dims) == 0 || len(dims) > 2 {
		return nil, fmt.Errorf("array %q: %d dimensions unsupported (1 or 2)", name, len(dims))
	}
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("array %q: non-positive extent %d", name, d)
		}
	}
	if pageElems <= 0 {
		pageElems = timing.DefaultPageElems
	}
	if pageElems > maxElems {
		return nil, fmt.Errorf("array %q: page size %d exceeds %d elements", name, pageElems, maxElems)
	}
	if numPEs <= 0 {
		return nil, fmt.Errorf("array %q: numPEs %d", name, numPEs)
	}
	if origin < 0 || origin >= numPEs {
		return nil, fmt.Errorf("array %q: origin PE %d out of [0,%d)", name, origin, numPEs)
	}
	h := &Header{ID: id, Name: name, Dims: append([]int(nil), dims...),
		PageElems: pageElems, NumPEs: numPEs, Dist: dist, Origin: origin}
	h.elems = 1
	for _, d := range dims {
		if d > maxElems/h.elems {
			return nil, fmt.Errorf("array %q: more than %d elements", name, maxElems)
		}
		h.elems *= d
	}
	h.rowLen = dims[len(dims)-1]
	h.pages = (h.elems + pageElems - 1) / pageElems
	h.q, h.r = h.pages/numPEs, h.pages%numPEs
	h.cut = h.r * (h.q + 1)
	// q is 0 only when there are fewer pages than PEs, where every page
	// lies below cut and OwnerOf never divides by it.
	h.pageDiv, h.qDiv, h.q1Div = newDivisor(pageElems), newDivisor(max(h.q, 1)), newDivisor(h.q+1)
	return h, nil
}

// Elems is the total number of elements.
func (h *Header) Elems() int { return h.elems }

// Pages is the number of fixed-size pages covering the array (§4.1 step 1:
// "the array is cut-up row-major into pages of a fixed size").
func (h *Header) Pages() int { return h.pages }

// Offset converts 1-based indices to the row-major linear offset, mirroring
// the paper's "offset = size_dim2 * i + j" pseudo-code. It returns an error
// for out-of-bounds accesses.
func (h *Header) Offset(idx []int64) (int, error) {
	if len(idx) != len(h.Dims) {
		return 0, fmt.Errorf("array %q: %d indices for %d dims", h.Name, len(idx), len(h.Dims))
	}
	off := 0
	for d, i := range idx {
		if i < 1 || i > int64(h.Dims[d]) {
			return 0, &BoundsError{Array: h.Name, Dim: d, Index: i, Extent: h.Dims[d]}
		}
		off = off*h.Dims[d] + int(i-1)
	}
	return off, nil
}

// OffsetOf is Offset for an access whose 1-based indices sit in the frame
// slots named by slots: the executors' form, which gathers nothing and
// allocates nothing on the in-bounds path.
func (h *Header) OffsetOf(frame []isa.Value, slots []int) (int, error) {
	if len(slots) != len(h.Dims) {
		return 0, fmt.Errorf("array %q: %d indices for %d dims", h.Name, len(slots), len(h.Dims))
	}
	i := frame[slots[0]].AsInt()
	if i < 1 || i > int64(h.Dims[0]) {
		return 0, &BoundsError{Array: h.Name, Dim: 0, Index: i, Extent: h.Dims[0]}
	}
	off := int(i - 1)
	if len(slots) == 2 {
		j := frame[slots[1]].AsInt()
		if j < 1 || j > int64(h.rowLen) {
			return 0, &BoundsError{Array: h.Name, Dim: 1, Index: j, Extent: h.rowLen}
		}
		off = off*h.rowLen + int(j-1)
	}
	return off, nil
}

// PageOf returns the page index containing linear offset off, which must
// fit an int32 (0 <= off < 2^31).
func (h *Header) PageOf(off int) int { return h.pageDiv.div(off) }

// segment boundaries: pages are grouped into NumPEs segments of
// approximately equal size, assigned to PEs sequentially (§4.1 step 2).
// Segment p covers pages [pageLo(p), pageLo(p+1)).
func (h *Header) pageLo(pe int) int {
	// Distribute pages as evenly as possible: the first (pages % numPEs)
	// segments get one extra page.
	if pe <= h.r {
		return pe * (h.q + 1)
	}
	return h.cut + (pe-h.r)*h.q
}

// SegmentPages returns the page range [lo, hi) assigned to a PE.
func (h *Header) SegmentPages(pe int) (lo, hi int) {
	if !h.Dist {
		if pe == h.Origin {
			return 0, h.pages
		}
		return 0, 0
	}
	return h.pageLo(pe), h.pageLo(pe + 1)
}

// SegmentElems returns the linear element range [lo, hi) owned by a PE.
func (h *Header) SegmentElems(pe int) (lo, hi int) {
	plo, phi := h.SegmentPages(pe)
	lo = plo * h.PageElems
	hi = phi * h.PageElems
	if hi > h.elems {
		hi = h.elems
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// OwnerOf returns the PE owning the element at linear offset off, which
// must lie inside the array (0 <= off < Elems()); callers bounds-check the
// offset first.
func (h *Header) OwnerOf(off int) int {
	if !h.Dist {
		return h.Origin
	}
	page := h.PageOf(off)
	// Invert pageLo with the same quotient/remainder split. With fewer
	// pages than PEs (q == 0) every page lies below cut, so page p belongs
	// to PE p.
	if page < h.cut {
		return h.q1Div.div(page)
	}
	return h.r + h.qDiv.div(page-h.cut)
}

// OwnedRows returns the inclusive 1-based range [lo, hi] of dimension-0
// indices ("rows") that a PE is *responsible for computing* under the
// first-element-ownership rule (§4.2.3): "the PE holding the first element
// of any given row is responsible for the entire row". It returns ok=false
// when the PE is responsible for no rows.
func (h *Header) OwnedRows(pe int) (lo, hi int64, ok bool) {
	rows := h.Dims[0]
	rowLen := 1
	if len(h.Dims) == 2 {
		rowLen = h.rowLen
	}
	elo, ehi := h.SegmentElems(pe)
	if elo >= ehi {
		return 0, 0, false
	}
	// Rows whose first element offset r*rowLen falls in [elo, ehi).
	first := (elo + rowLen - 1) / rowLen // ceil
	last := (ehi - 1) / rowLen
	if last > rows-1 {
		last = rows - 1
	}
	if first > last {
		return 0, 0, false
	}
	return int64(first + 1), int64(last + 1), true
}

// OwnedCols returns the inclusive 1-based range of dimension-1 indices of
// row `row` whose elements live in this PE's segment — the in-row Range
// Filter of Figure 5 ("the RF in PE1 produces the j range 0:255 when i is 0
// but only 0:127 when i is 1"). ok=false when the PE holds none of the row.
// For 1-D arrays, row is ignored and the owned element range is returned.
func (h *Header) OwnedCols(pe int, row int64) (lo, hi int64, ok bool) {
	elo, ehi := h.SegmentElems(pe)
	if elo >= ehi {
		return 0, 0, false
	}
	if len(h.Dims) == 1 {
		return int64(elo + 1), int64(ehi), true
	}
	if row < 1 || row > int64(h.Dims[0]) {
		return 0, 0, false
	}
	rowLen := h.Dims[1]
	rstart := int(row-1) * rowLen
	rend := rstart + rowLen // exclusive
	lo64 := max(elo, rstart)
	hi64 := min(ehi, rend)
	if lo64 >= hi64 {
		return 0, 0, false
	}
	return int64(lo64-rstart) + 1, int64(hi64 - rstart), true
}

// RangeFilter returns what Range-Filter instruction in (ROWLO … UNIFHI)
// yields on PE pe of pes, reading its operands from frame f (§4.2.2–4.2.3):
// the low or high end of the rows of h that pe is responsible for, of the
// part of row B it owns, or of its block of the uniform split of [A, B]. A
// PE with nothing to do gets the empty range (1, 0), so the filtered loop
// runs no iteration. A non-nil stamp replaces the rule with explicit bounds
// (adaptive rebinding); the uniform filter still clamps them to [A, B],
// since it replaces the loop's bounds outright. h may be nil when the
// uniform filter or a stamp answers.
func RangeFilter(in *isa.DInstr, f []isa.Value, h *Header, pe, pes int, stamp *[2]int64) int64 {
	var lo, hi int64
	switch {
	case in.Op == isa.UNIFLO || in.Op == isa.UNIFHI:
		lo, hi = f[in.A].AsInt(), f[in.B].AsInt()
		if stamp != nil {
			lo, hi = max(lo, stamp[0]), min(hi, stamp[1])
		} else {
			n, id := max(hi-lo+1, 0), int64(pe)
			lo, hi = lo+n*id/int64(pes), lo+n*(id+1)/int64(pes)-1
		}
	case stamp != nil:
		lo, hi = stamp[0], stamp[1]
	default:
		var ok bool
		if in.Op == isa.ROWLO || in.Op == isa.ROWHI {
			lo, hi, ok = h.OwnedRows(pe)
		} else {
			lo, hi, ok = h.OwnedCols(pe, f[in.B].AsInt())
		}
		if !ok {
			lo, hi = 1, 0
		}
	}
	if in.Op == isa.ROWHI || in.Op == isa.COLHI || in.Op == isa.UNIFHI {
		return hi
	}
	return lo
}

// BoundsError reports an out-of-range array access.
type BoundsError struct {
	Array  string
	Dim    int
	Index  int64
	Extent int
}

func (e *BoundsError) Error() string {
	return fmt.Sprintf("array %q: index %d out of range [1,%d] in dim %d", e.Array, e.Index, e.Extent, e.Dim)
}
