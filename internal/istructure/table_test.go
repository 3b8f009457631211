package istructure

import (
	"fmt"
	"testing"
)

// TestArrayTable: arrays minted by several PEs under job bits, with their
// sequence numbers interleaved and one sparse ID, each resolve to their own
// handle; IDs that were never installed resolve to nil; the table's size
// follows the number of arrays, not the ID values; and an ID installs once.
func TestArrayTable(t *testing.T) {
	const job, pes, perPE = 5, 3, 40
	s := NewShard(1)
	installed := map[int64]*Header{}
	install := func(id int64) {
		t.Helper()
		h, err := NewHeader(id, fmt.Sprint(id), []int{16}, 4, pes, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Install(h); err != nil {
			t.Fatal(err)
		}
		installed[id] = h
	}
	// Round-robin over the PEs, so every PE's table grows while the others
	// fill in between; PE 2 mints every other sequence number.
	for seq := int64(1); seq <= perPE; seq++ {
		for pe := 0; pe < pes; pe++ {
			if pe == 2 && seq%2 == 0 {
				continue
			}
			install(PackID(job, pe, seq))
		}
	}
	install(PackID(job, 200, 1)) // widens the stride after 100 arrays
	install(1 << 20)             // sparse, and in the PE field no job uses
	install(1<<20 + 3)

	for id, h := range installed {
		if a := s.Array(id); a == nil || a.Header() != h {
			t.Fatalf("Array(%#x) = %v, want the handle of its own header", id, a)
		}
	}
	for _, id := range []int64{
		PackID(job+1, 0, 1),                // wrong job bits
		PackID(0, 1, 7),                    // no job bits
		PackID(job, 0, perPE+1),            // sequence number past the end
		PackID(job, 2, 2),                  // a gap in PE 2's numbering
		PackID(job, pes, 1),                // PE past the end
		PackID(job, MaxPEs-1, 1),           // the last PE field
		1<<20 + 1,                          // the sparse ID's neighbour
		1 << 21,                            // same home slot as 1<<20
		0,                                  // the driver environment
		-1,                                 // every bit set
		PackID(job, 0, 1) | 1<<(PEShift-1), // PE 0's seq 1 with the top sequence bit
	} {
		if _, ok := installed[id]; ok {
			t.Fatalf("test bug: %#x is installed", id)
		}
		if a := s.Array(id); a != nil {
			t.Errorf("Array(%#x) = array %#x, want nil", id, a.Header().ID)
		}
	}

	if n := len(installed); len(s.slots) > 4*n {
		t.Errorf("%d arrays occupy %d table slots", n, len(s.slots))
	}

	for _, id := range []int64{PackID(job, 0, 1), PackID(job, 2, perPE-1), 1 << 20} {
		if err := s.Install(installed[id]); err == nil {
			t.Errorf("second install of %#x accepted", id)
		}
	}
}
