package bench

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/kernels"
)

// The SKEW experiment measures what dynamic work stealing buys on kernels
// whose static SPAWND partitioning is load-imbalanced: the triangular
// kernel (row i costs O(i²), so the last PE's block dominates) and the
// mirror kernel (every consumer read is remote). Each (kernel, PE count)
// cell runs the cluster runtime with stealing off and on and reports
//
//   - the makespan: the maximum per-PE executed-instruction count, which
//     is what wall-clock converges to on hardware with one core per PE
//     (wall-clock numbers come from benchmark/, not from here), and
//   - the recovered utilization: mean/max per-PE instructions — the
//     fraction of the busiest PE's load the average PE carries, 1.0 being
//     perfect balance.

// SkewCell is one (kernel, PEs, steal) measurement.
type SkewCell struct {
	Makespan int64   // max per-PE executed instructions
	Util     float64 // mean/max per-PE executed instructions
	Steals   int64
	Forwards int64
}

// SkewResult is the SKEW experiment output.
type SkewResult struct {
	N       int
	PEs     []int
	Kernels []string
	// Cells[kernel][pes][steal-on] — steal-off at index 0, steal-on at 1.
	Cells map[string]map[int][2]SkewCell
}

// skewKernels are the workloads whose static partition skews.
var skewKernels = []string{"triangular", "mirror"}

// Skew runs the SKEW experiment at problem size n over the given PE
// counts. With no explicit kernels it covers every skewed kernel; a
// caller interested in a single cell (the benchmarks) names it to avoid
// paying for the rest of the matrix.
func Skew(n int, pes []int, kerns ...string) (*SkewResult, error) {
	if len(kerns) == 0 {
		kerns = skewKernels
	}
	r := &SkewResult{
		N:       n,
		PEs:     pes,
		Kernels: kerns,
		Cells:   make(map[string]map[int][2]SkewCell),
	}
	ctx := context.Background()
	for _, kn := range r.Kernels {
		k, ok := kernels.ByName(kn)
		if !ok {
			return nil, fmt.Errorf("bench: unknown kernel %q", kn)
		}
		prog, err := Compile(k.File(), k.Source, true)
		if err != nil {
			return nil, err
		}
		r.Cells[kn] = make(map[int][2]SkewCell)
		for _, p := range pes {
			var pair [2]SkewCell
			for si, steal := range []bool{false, true} {
				runCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
				res, err := cluster.Execute(runCtx, prog,
					cluster.Config{NumPEs: p, Steal: steal}, k.Args(n)...)
				cancel()
				if err != nil {
					return nil, fmt.Errorf("%s @%dPE steal=%v: %w", kn, p, steal, err)
				}
				cell := SkewCell{
					Steals:   res.Stats.Steals,
					Forwards: res.Stats.Forwards,
				}
				var sum int64
				for _, v := range res.PEInstrs {
					sum += v
					if v > cell.Makespan {
						cell.Makespan = v
					}
				}
				if cell.Makespan > 0 {
					cell.Util = float64(sum) / float64(p) / float64(cell.Makespan)
				}
				pair[si] = cell
			}
			r.Cells[kn][p] = pair
		}
	}
	return r, nil
}

// Format renders the experiment.
func (r *SkewResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SKEW — work stealing on skewed kernels, n=%d (makespan=max per-PE instrs / util=mean÷max)\n", r.N)
	fmt.Fprintf(&b, "the makespan column is the speed-up proxy; wall-clock numbers come from benchmark/\n\n")
	fmt.Fprintf(&b, "%-11s %4s %10s %10s %7s %7s %8s\n",
		"kernel", "PEs", "mkspan-off", "mkspan-on", "utl-off", "utl-on", "steals")
	for _, kn := range r.Kernels {
		for _, p := range r.PEs {
			c := r.Cells[kn][p]
			fmt.Fprintf(&b, "%-11s %4d %10d %10d %7.2f %7.2f %8d\n",
				kn, p, c[0].Makespan, c[1].Makespan, c[0].Util, c[1].Util, c[1].Steals)
		}
	}
	return b.String()
}

// WriteCSV emits kernel,pes,steal,makespan,util,steals,forwards rows.
func (r *SkewResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, kn := range r.Kernels {
		for _, p := range r.PEs {
			for si, steal := range []string{"off", "on"} {
				c := r.Cells[kn][p][si]
				rows = append(rows, []string{
					kn, strconv.Itoa(p), steal,
					strconv.FormatInt(c.Makespan, 10),
					fmtF(c.Util),
					strconv.FormatInt(c.Steals, 10),
					strconv.FormatInt(c.Forwards, 10),
				})
			}
		}
	}
	return writeCSV(w, []string{"kernel", "pes", "steal", "makespan", "util", "steals", "forwards"}, rows)
}
