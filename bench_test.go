// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (see DESIGN.md §4 for the experiment index). Each benchmark
// reports the headline quantity of its artifact as a custom metric, so
// `go test -bench=. -benchmem` both exercises the machinery and prints the
// reproduced numbers. cmd/podsbench prints the full paper-scale axes.
package pods_test

import (
	"testing"

	"repro/internal/bench"
)

// BenchmarkTableT1InstrTimes exercises the §5.1 instruction-cost table
// rendering (T1) and fails if the model drifts from the paper's numbers.
func BenchmarkTableT1InstrTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := bench.TableT1()
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTableT2AMCosts exercises the §5.1 Array-Manager cost table (T2).
func BenchmarkTableT2AMCosts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := bench.TableT2()
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFigure8UnitUtilization regenerates Figure 8 (unit balance,
// 16×16 SIMPLE) on a reduced PE axis and reports the EU:next-unit ratio.
func BenchmarkFigure8UnitUtilization(b *testing.B) {
	var euOver float64
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure8(16, []int{1, 8})
		if err != nil {
			b.Fatal(err)
		}
		eu := r.Util["EU"][1]
		rest := 0.0
		for _, u := range []string{"MU", "RU", "AM", "MM"} {
			if v := r.Util[u][1]; v > rest {
				rest = v
			}
		}
		euOver = eu / rest
	}
	b.ReportMetric(euOver, "EU/next-busiest")
}

// BenchmarkFigure9EUUtilization regenerates Figure 9 on a reduced axis and
// reports the 32×32 EU utilization at 8 PEs.
func BenchmarkFigure9EUUtilization(b *testing.B) {
	var util float64
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure9([]int{16, 32}, []int{1, 8})
		if err != nil {
			b.Fatal(err)
		}
		util = r.Util[1][1]
	}
	b.ReportMetric(100*util, "EU%@8PE")
}

// BenchmarkFigure10Speedup regenerates Figure 10 on a reduced axis and
// reports the 32×32 speed-up at 16 PEs (paper's full-scale 32-PE numbers:
// 8.1 / 12.4 / 18.9 for the three sizes).
func BenchmarkFigure10Speedup(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := bench.Figure10([]int{16, 32}, []int{1, 4, 16})
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.Speedup[1][2]
	}
	b.ReportMetric(speedup, "speedup:32x32@16PE")
}

// BenchmarkFigure10Baseline measures the P&R control-driven baseline alone
// (the comparison curve of Figure 10).
func BenchmarkFigure10Baseline(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r1, err := bench.RunSimple(32, 1, bench.VariantPR)
		if err != nil {
			b.Fatal(err)
		}
		r16, err := bench.RunSimple(32, 16, bench.VariantPR)
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(r1.Time) / float64(r16.Time)
	}
	b.ReportMetric(speedup, "P&R-speedup:32x32@16PE")
}

// BenchmarkEfficiencyComparison regenerates E1 (§5.3.4) and reports the
// PODS-vs-ideal-sequential ratio (paper: 1.91).
func BenchmarkEfficiencyComparison(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := bench.EfficiencyE1(32)
		if err != nil {
			b.Fatal(err)
		}
		ratio = r.Ratio
	}
	b.ReportMetric(ratio, "PODS/seq-ratio")
}

// BenchmarkMatmulPipeline regenerates X1 (the §5.2 generic example) and
// reports its 8-PE speed-up.
func BenchmarkMatmulPipeline(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		r, err := bench.MatmulX1(16, []int{1, 8})
		if err != nil {
			b.Fatal(err)
		}
		speedup = r.Speedup[1]
	}
	b.ReportMetric(speedup, "speedup:16x16@8PE")
}

// BenchmarkAblationNoDistribution measures how much §4.2's loop
// distribution buys (DESIGN.md ablation).
func BenchmarkAblationNoDistribution(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		full, err := bench.RunSimple(16, 8, bench.VariantPODS)
		if err != nil {
			b.Fatal(err)
		}
		nodist, err := bench.RunSimple(16, 8, bench.VariantNoDist)
		if err != nil {
			b.Fatal(err)
		}
		slowdown = float64(nodist.Time) / float64(full.Time)
	}
	b.ReportMetric(slowdown, "nodist-slowdown")
}

// BenchmarkAblationNoCache measures how much §4's software page cache buys.
func BenchmarkAblationNoCache(b *testing.B) {
	var slowdown float64
	for i := 0; i < b.N; i++ {
		full, err := bench.RunSimple(16, 8, bench.VariantPODS)
		if err != nil {
			b.Fatal(err)
		}
		nocache, err := bench.RunSimple(16, 8, bench.VariantNoCache)
		if err != nil {
			b.Fatal(err)
		}
		slowdown = float64(nocache.Time) / float64(full.Time)
	}
	b.ReportMetric(slowdown, "nocache-slowdown")
}

// BenchmarkSimulatorThroughput measures raw simulator speed (virtual
// instructions per wall second) on the 16×16 SIMPLE — a performance guard
// for the DES core itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	var instrs int64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunSimple(16, 8, bench.VariantPODS)
		if err != nil {
			b.Fatal(err)
		}
		instrs = res.Counts.Instructions
	}
	b.ReportMetric(float64(instrs), "sim-instrs/op")
}
