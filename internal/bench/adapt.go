package bench

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// The ADAPT experiment measures what runtime-adaptive repartitioning of
// Range Filter bounds buys on the drifting-skew relax kernel, where the
// expensive rows rotate across sweeps so no fixed partition stays right.
// Each (PE count) cell runs the full 2×2 of adaptation off/on × work
// stealing off/on and reports
//
//   - the makespan (max per-PE executed instructions — the speed-up proxy
//     on an oversubscribed host, as in SKEW),
//   - the recovered utilization (mean/max per-PE instructions), and
//   - the rebound count: how many cut-vector broadcasts the coordinator
//     issued (0 in the adapt-off arms by construction).
//
// Stealing and adaptation compose rather than compete: stealing reacts
// within a sweep by migrating whole not-yet-started SPs, adaptation fixes
// the split between sweeps so there is less left to steal.

// AdaptCell is one (PEs, steal, adapt) measurement.
type AdaptCell struct {
	Makespan int64   // max per-PE executed instructions
	Util     float64 // mean/max per-PE executed instructions
	Rebounds int64
	Steals   int64
}

// AdaptResult is the ADAPT experiment output.
type AdaptResult struct {
	N      int
	Sweeps int
	PEs    []int
	// Cells[pes][steal][adapt] — off at index 0, on at 1.
	Cells map[int][2][2]AdaptCell
}

// Adapt runs the ADAPT experiment: the relax kernel at problem size n with
// the given sweep count, over the given PE counts.
func Adapt(n, sweeps int, pes []int) (*AdaptResult, error) {
	prog, err := Compile("relax.id", kernels.Relax, true)
	if err != nil {
		return nil, err
	}
	args := []isa.Value{isa.Int(int64(n)), isa.Int(int64(sweeps))}
	r := &AdaptResult{N: n, Sweeps: sweeps, PEs: pes, Cells: make(map[int][2][2]AdaptCell)}
	ctx := context.Background()
	for _, p := range pes {
		var cell [2][2]AdaptCell
		for si, steal := range []bool{false, true} {
			for ai, adapt := range []bool{false, true} {
				runCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
				res, err := cluster.Execute(runCtx, prog,
					cluster.Config{NumPEs: p, Steal: steal, Adapt: adapt}, args...)
				cancel()
				if err != nil {
					return nil, fmt.Errorf("relax @%dPE steal=%v adapt=%v: %w", p, steal, adapt, err)
				}
				c := AdaptCell{
					Rebounds: res.Stats.Rebounds,
					Steals:   res.Stats.Steals,
				}
				var sum int64
				for _, v := range res.PEInstrs {
					sum += v
					if v > c.Makespan {
						c.Makespan = v
					}
				}
				if c.Makespan > 0 {
					c.Util = float64(sum) / float64(p) / float64(c.Makespan)
				}
				cell[si][ai] = c
			}
		}
		r.Cells[p] = cell
	}
	return r, nil
}

// Format renders the experiment.
func (r *AdaptResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ADAPT — adaptive Range-Filter repartitioning on the drifting-skew relax kernel, n=%d sweeps=%d\n", r.N, r.Sweeps)
	fmt.Fprintf(&b, "(makespan = max per-PE instrs; util = mean÷max; rebounds = cut broadcasts issued)\n\n")
	fmt.Fprintf(&b, "%4s %-9s %10s %7s %8s %7s\n",
		"PEs", "arm", "makespan", "util", "rebounds", "steals")
	arms := []struct {
		si, ai int
		name   string
	}{{0, 0, "static"}, {0, 1, "adapt"}, {1, 0, "steal"}, {1, 1, "both"}}
	for _, p := range r.PEs {
		cell := r.Cells[p]
		for _, a := range arms {
			c := cell[a.si][a.ai]
			fmt.Fprintf(&b, "%4d %-9s %10d %7.2f %8d %7d\n",
				p, a.name, c.Makespan, c.Util, c.Rebounds, c.Steals)
		}
	}
	return b.String()
}

// WriteCSV emits pes,steal,adapt,makespan,util,rebounds,steals rows.
func (r *AdaptResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	onOff := []string{"off", "on"}
	for _, p := range r.PEs {
		cell := r.Cells[p]
		for si := 0; si < 2; si++ {
			for ai := 0; ai < 2; ai++ {
				c := cell[si][ai]
				rows = append(rows, []string{
					strconv.Itoa(p), onOff[si], onOff[ai],
					strconv.FormatInt(c.Makespan, 10),
					fmtF(c.Util),
					strconv.FormatInt(c.Rebounds, 10),
					strconv.FormatInt(c.Steals, 10),
				})
			}
		}
	}
	return writeCSV(w, []string{"pes", "steal", "adapt", "makespan", "util", "rebounds", "steals"}, rows)
}
