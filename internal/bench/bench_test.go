package bench

import (
	"strings"
	"testing"
)

// Small axes keep unit tests fast; cmd/podsbench runs the full sweep.
var (
	testPEs   = []int{1, 4, 16}
	testSizes = []int{8, 16}
)

func TestFigure8Shape(t *testing.T) {
	r, err := Figure8(16, testPEs)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range r.PEs {
		eu := r.Util["EU"][pi]
		for _, u := range []string{"MU", "RU", "AM", "MM"} {
			if r.Util[u][pi] >= eu {
				t.Errorf("PEs=%d: %s utilization %.3f >= EU %.3f", r.PEs[pi], u, r.Util[u][pi], eu)
			}
		}
	}
	out := r.Format()
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "EU") {
		t.Errorf("format output malformed:\n%s", out)
	}
}

func TestFigure9Shape(t *testing.T) {
	r, err := Figure9(testSizes, testPEs)
	if err != nil {
		t.Fatal(err)
	}
	// Larger problems sustain higher EU utilization at the largest PE count.
	last := len(testPEs) - 1
	if r.Util[1][last] <= r.Util[0][last] {
		t.Errorf("EU util at %d PEs: %dx%d %.3f should exceed %dx%d %.3f",
			testPEs[last], testSizes[1], testSizes[1], r.Util[1][last],
			testSizes[0], testSizes[0], r.Util[0][last])
	}
	// Utilization decreases from 1 PE to many PEs.
	for i := range testSizes {
		if r.Util[i][last] >= r.Util[i][0] {
			t.Errorf("size %d: EU util should fall with PE count (%.3f -> %.3f)",
				testSizes[i], r.Util[i][0], r.Util[i][last])
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	r, err := Figure10(testSizes, testPEs)
	if err != nil {
		t.Fatal(err)
	}
	last := len(testPEs) - 1
	// Speed-up at the largest PE count is ordered by problem size.
	if r.Speedup[1][last] <= r.Speedup[0][last] {
		t.Errorf("larger problem should speed up more: %v vs %v", r.Speedup[1], r.Speedup[0])
	}
	// Speed-up grows with PEs for the biggest size.
	for p := 1; p <= last; p++ {
		if r.Speedup[1][p] <= r.Speedup[1][p-1] {
			t.Errorf("64-equivalent speed-up not monotonic: %v", r.Speedup[1])
		}
	}
	// PODS >= P&R at the largest size and PE count (the paper's headline).
	if r.Speedup[1][last] < r.PRSpeedup[last] {
		t.Errorf("PODS %.2f should beat P&R %.2f at %d PEs", r.Speedup[1][last], r.PRSpeedup[last], testPEs[last])
	}
	if s := r.Format(); !strings.Contains(s, "P&R") {
		t.Errorf("format missing baseline:\n%s", s)
	}
}

func TestEfficiencyE1(t *testing.T) {
	r, err := EfficiencyE1(16)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ratio <= 1.0 {
		t.Errorf("PODS with overheads (%.3fs) must be slower than ideal sequential (%.3fs)", r.PodsSec, r.SeqSeconds)
	}
	if r.Ratio > 5.0 {
		t.Errorf("ratio %.2f implausibly far from the paper's 1.91", r.Ratio)
	}
}

func TestMatmulX1(t *testing.T) {
	r, err := MatmulX1(12, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup[1] <= 1.2 {
		t.Errorf("matmul should speed up on 4 PEs, got %.2f", r.Speedup[1])
	}
}

func TestAblations(t *testing.T) {
	r, err := Ablations(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	pods := r.Seconds["PODS"]
	if r.Seconds["nodist"] <= pods {
		t.Errorf("disabling distribution should hurt: PODS %.3f vs nodist %.3f", pods, r.Seconds["nodist"])
	}
	if r.Seconds["P&R"] < pods {
		t.Errorf("control-driven stalling should not beat PODS: %.3f vs %.3f", r.Seconds["P&R"], pods)
	}
}

func TestTablesRender(t *testing.T) {
	t1 := TableT1()
	if strings.Contains(t1, "MISMATCH") {
		t.Errorf("cost model drifted from the paper's table:\n%s", t1)
	}
	if !strings.Contains(t1, "96.418") {
		t.Errorf("T1 missing fpow entry:\n%s", t1)
	}
	t2 := TableT2()
	if !strings.Contains(t2, "Dunigan") || !strings.Contains(t2, "19.5") {
		t.Errorf("T2 malformed:\n%s", t2)
	}
}

func TestPageSweepNotCritical(t *testing.T) {
	r, err := PageSweep(16, 4, []int{8, 32, 64})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := r.Seconds[0], r.Seconds[0]
	for _, s := range r.Seconds {
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	// [BIC89]: page size is not a critical parameter — the spread across an
	// 8x range of page sizes should stay well under 2x.
	if hi/lo > 2.0 {
		t.Errorf("page-size spread %.2fx too large:\n%s", hi/lo, r.Format())
	}
}

func TestCSVWriters(t *testing.T) {
	f8, err := Figure8(8, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := f8.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "unit,pes,utilization\n") {
		t.Errorf("f8 csv: %s", b.String())
	}
	f10, err := Figure10([]int{8}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := f10.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "PR8") || strings.Count(out, "\n") != 5 {
		t.Errorf("f10 csv:\n%s", out)
	}
	f9, err := Figure9([]int{8}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if err := f9.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "size,pes,eu_utilization\n") {
		t.Errorf("f9 csv: %s", b.String())
	}
}
