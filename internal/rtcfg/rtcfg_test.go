package rtcfg

import (
	"testing"

	"repro/internal/timing"
)

func TestFillDefaults(t *testing.T) {
	var g Geometry
	if err := g.Fill(DefaultPEs); err != nil {
		t.Fatal(err)
	}
	if g.PEs != DefaultPEs {
		t.Errorf("PEs = %d, want %d", g.PEs, DefaultPEs)
	}
	if g.PageElems != timing.DefaultPageElems {
		t.Errorf("PageElems = %d, want %d", g.PageElems, timing.DefaultPageElems)
	}
}

func TestFillKeepsExplicit(t *testing.T) {
	g := Geometry{PEs: 7, PageElems: 16}
	if err := g.Fill(1); err != nil {
		t.Fatal(err)
	}
	if g.PEs != 7 || g.PageElems != 16 {
		t.Errorf("explicit values changed: %+v", g)
	}
}

// TestDistributesBoundary pins the distribution rule at its edges: two
// pages spread, one element fewer does not, and one PE never spreads.
func TestDistributesBoundary(t *testing.T) {
	for _, tc := range []struct {
		pes, page, elems int
		want             bool
	}{
		{4, 8, 15, false},
		{4, 8, 16, true},
		{4, 8, 17, true},
		{2, 1, 1, false},
		{2, 1, 2, true},
		{1, 8, 16, false},
		{1, 8, 1 << 20, false},
		{16, 4, 8, true},
		{4, 32, 63, false},
		{4, 32, 64, true},
	} {
		g := Geometry{PEs: tc.pes, PageElems: tc.page}
		if got := g.Distributes(tc.elems); got != tc.want {
			t.Errorf("Geometry{PEs: %d, PageElems: %d}.Distributes(%d) = %v, want %v",
				tc.pes, tc.page, tc.elems, got, tc.want)
		}
	}
}

func TestFillRejectsHugePEs(t *testing.T) {
	g := Geometry{PEs: MaxPEs + 1}
	if err := g.Fill(1); err == nil {
		t.Fatal("want error for PEs above MaxPEs")
	}
}
