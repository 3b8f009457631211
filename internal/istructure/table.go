package istructure

// The array table resolves an array ID to its handle on every access, with
// no Go map and no hashing. It is a dense index by (minting PE, sequence
// number), the two fields of the ID layout (id.go): an ID's home slot is
// seq·stride + pe, its mixed-radix position with the PE field as the low
// digit, modulo the table's power-of-two length. The stride is odd and
// exceeds every PE field installed, so each PE's arrays 1, 2, 3, … and the
// other PEs' arrays interleave without colliding until the index wraps,
// and multiplying by an odd stride permutes the slots, so one PE's run of
// sequence numbers never collides with itself. A lookup is one probe:
// multiply, mask, load the slot, compare the ID stored inline. An ID that
// does not follow the pattern (a sparse sequence number, a stranger's job
// bits) collides and probes on, linearly, never wrongly. The table stays
// at most half full, so memory grows with the number of arrays installed,
// not with ID values.

// idSlot is one table entry; a nil handle is an empty slot. The ID is
// stored inline so that a probe reads one slot, not the handle's header.
type idSlot struct {
	id int64
	a  *Array
}

// Array resolves an array ID to its handle, or nil when the array is not
// installed here. This is the one lookup an access pays; every further
// operation goes through the handle. It is small enough for the compiler
// to inline into the executors (go build -gcflags=-m says so); keep it so.
func (s *Shard) Array(id int64) *Array {
	slots := s.slots
	// An empty table wraps the mask to all ones and ends the loop at once.
	mask := uint64(len(slots)) - 1
	for i := s.home(id) & mask; i < uint64(len(slots)); i = (i + 1) & mask {
		if e := &slots[i]; e.id == id || e.a == nil {
			return e.a
		}
	}
	return nil
}

// home is an ID's slot before the mask: seq·stride + pe.
func (s *Shard) home(id int64) uint64 {
	return uint64(id)&seqMask*s.stride + uint64(id)>>PEShift&MaxPEs
}

// insert adds the handle of an array that is not installed yet. A PE field
// at or above the stride widens the stride to the odd number above it and
// rebuilds the table, as does an insert that would pass half full.
func (s *Shard) insert(a *Array) {
	pe := uint64(a.h.ID) >> PEShift & MaxPEs
	if stride := (pe + 1) | 1; stride > s.stride || 2*(s.n+1) > len(s.slots) {
		old, size := s.slots, max(8, len(s.slots))
		if 2*(s.n+1) > size {
			size *= 2
		}
		s.stride = max(s.stride, stride)
		s.slots = make([]idSlot, size)
		for _, e := range old {
			if e.a != nil {
				s.put(e)
			}
		}
	}
	s.put(idSlot{a.h.ID, a})
	s.n++
}

// put stores e in the first free slot from its home slot on.
func (s *Shard) put(e idSlot) {
	mask := uint64(len(s.slots)) - 1
	i := s.home(e.id) & mask
	for s.slots[i].a != nil {
		i = (i + 1) & mask
	}
	s.slots[i] = e
}

// installed yields every installed array (a range-over-func iterator:
// for a := range s.installed).
func (s *Shard) installed(yield func(*Array) bool) {
	for _, e := range s.slots {
		if e.a != nil && !yield(e.a) {
			return
		}
	}
}
