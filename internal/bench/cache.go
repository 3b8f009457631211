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

// The CACHE experiment measures what bounding the software page cache
// costs and buys: each (kernel, cap) cell runs the cluster runtime with
// Config.CachePages at the given cap (0 = unbounded, the control arm) and
// reports
//
//   - the hit rate: cache hits / (hits + misses) over all remote reads —
//     the curve that shows how small the cache can get before remote
//     traffic explodes,
//   - evictions and refetches: how hard the CLOCK bound worked and how
//     often it threw away a page that was needed again,
//   - the makespan (max per-PE executed instructions), so the memory
//     bound's performance price is visible next to its footprint.
//
// Kernels: heat (the Jacobi step whose boundary reads exercise neighbour
// pages — the SIMPLE building block named in the ROADMAP item), relax
// (sweep-structured reads over a version-blocked array, so the working set
// rotates and a bounded cache must keep re-deciding what to hold), and
// matmul (every row task re-reads all of B, so its working set exceeds any
// small cap and the hit-rate curve actually bends — heat and relax touch
// remote pages in tight bursts and barely notice eviction).
//
// Since the page-heat machinery landed (Config.Heat), every bounded cell
// also runs a heat-on arm: streaming prefetch plus the adaptive cap,
// against the same fixed budget as the floor. The heat arm's hit rate at
// the caps where the plain bound collapses — matmul under a working set
// many times the cap — is the experiment's headline.

// CacheCell is one (kernel, cap, heat) measurement.
type CacheCell struct {
	Makespan     int64   // max per-PE executed instructions
	HitRate      float64 // hits / (hits + misses); 1.0 when there were no remote reads
	Hits         int64
	Misses       int64
	Evictions    int64
	Refetches    int64
	Prefetches   int64 // pages requested ahead of the miss (heat arm)
	PrefetchHits int64 // prefetched pages that later served a demand read
	CapEnd       int64 // final resident-page budget summed over PEs (adaptive cap)
}

// CacheResult is the CACHE experiment output.
type CacheResult struct {
	N       int
	PEs     int
	Caps    []int // page-cache caps; 0 = unbounded control arm
	Kernels []string
	// Cells[kernel][cap] is the plain bounded cache (heat off).
	Cells map[string]map[int]CacheCell
	// HeatCells[kernel][cap] is the same budget with Config.Heat on
	// (prefetch + adaptive cap). The unbounded cap 0 is skipped — with no
	// bound there is nothing for the machinery to win back.
	HeatCells map[string]map[int]CacheCell
}

// cacheKernels are the default workloads for the cap sweep.
var cacheKernels = []string{"heat", "relax", "matmul"}

// Cache runs the CACHE experiment at problem size n on pes PEs over the
// given cache caps. With no explicit kernels it covers the default trio; a
// caller interested in a single cell names one to avoid the rest.
func Cache(n, pes int, caps []int, kerns ...string) (*CacheResult, error) {
	if len(kerns) == 0 {
		kerns = cacheKernels
	}
	r := &CacheResult{
		N:         n,
		PEs:       pes,
		Caps:      caps,
		Kernels:   kerns,
		Cells:     make(map[string]map[int]CacheCell),
		HeatCells: make(map[string]map[int]CacheCell),
	}
	ctx := context.Background()
	run := func(prog *isa.Program, cfg cluster.Config, args []isa.Value) (CacheCell, error) {
		runCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
		defer cancel()
		res, err := cluster.Execute(runCtx, prog, cfg, args...)
		if err != nil {
			return CacheCell{}, err
		}
		cell := CacheCell{
			Hits:         res.Stats.CacheHits,
			Misses:       res.Stats.CacheMisses,
			Evictions:    res.Stats.Evictions,
			Refetches:    res.Stats.Refetches,
			Prefetches:   res.Stats.Prefetches,
			PrefetchHits: res.Stats.PrefetchHits,
			CapEnd:       res.Stats.CacheCapNow,
		}
		if total := cell.Hits + cell.Misses; total > 0 {
			cell.HitRate = float64(cell.Hits) / float64(total)
		} else {
			cell.HitRate = 1
		}
		for _, v := range res.PEInstrs {
			if v > cell.Makespan {
				cell.Makespan = v
			}
		}
		return cell, nil
	}
	for _, kn := range r.Kernels {
		k, ok := kernels.ByName(kn)
		if !ok {
			return nil, fmt.Errorf("bench: unknown kernel %q", kn)
		}
		prog, err := Compile(k.File(), k.Source, true)
		if err != nil {
			return nil, err
		}
		r.Cells[kn] = make(map[int]CacheCell)
		r.HeatCells[kn] = make(map[int]CacheCell)
		for _, cap := range caps {
			cell, err := run(prog, cluster.Config{NumPEs: pes, CachePages: cap}, k.Args(n))
			if err != nil {
				return nil, fmt.Errorf("%s @cap=%d: %w", kn, cap, err)
			}
			r.Cells[kn][cap] = cell
			if cap == 0 {
				continue // unbounded: nothing for the heat machinery to win back
			}
			hcell, err := run(prog, cluster.Config{NumPEs: pes, CachePages: cap, Heat: true}, k.Args(n))
			if err != nil {
				return nil, fmt.Errorf("%s @cap=%d heat: %w", kn, cap, err)
			}
			r.HeatCells[kn][cap] = hcell
		}
	}
	return r, nil
}

// Format renders the experiment.
func (r *CacheResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CACHE — bounded page cache with CLOCK eviction, n=%d @%dPE (cap in pages per shard; 0 = unbounded)\n", r.N, r.PEs)
	fmt.Fprintf(&b, "hit-rate = hits÷(hits+misses) over remote reads; refetches = evicted pages fetched again\n")
	fmt.Fprintf(&b, "heat = streaming prefetch + adaptive cap on the same budget; cap-end = final budget summed over PEs\n\n")
	fmt.Fprintf(&b, "%-8s %5s %-4s %10s %8s %8s %8s %8s %9s %9s %7s %7s\n",
		"kernel", "cap", "heat", "makespan", "hitrate", "hits", "misses", "evicts", "refetches", "prefetch", "pf-hit", "cap-end")
	row := func(kn string, cap int, heat string, c CacheCell) {
		fmt.Fprintf(&b, "%-8s %5d %-4s %10d %8.3f %8d %8d %8d %9d %9d %7d %7d\n",
			kn, cap, heat, c.Makespan, c.HitRate, c.Hits, c.Misses,
			c.Evictions, c.Refetches, c.Prefetches, c.PrefetchHits, c.CapEnd)
	}
	for _, kn := range r.Kernels {
		for _, cap := range r.Caps {
			row(kn, cap, "off", r.Cells[kn][cap])
			if hc, ok := r.HeatCells[kn][cap]; ok {
				row(kn, cap, "on", hc)
			}
		}
	}
	return b.String()
}

// WriteCSV emits kernel,cap,heat,makespan,hit_rate,hits,misses,
// evictions,refetches,prefetches,prefetch_hits,cap_end rows.
func (r *CacheResult) WriteCSV(w io.Writer) error {
	var rows [][]string
	row := func(kn string, cap int, heat string, c CacheCell) {
		rows = append(rows, []string{
			kn, strconv.Itoa(cap), heat,
			strconv.FormatInt(c.Makespan, 10),
			fmtF(c.HitRate),
			strconv.FormatInt(c.Hits, 10),
			strconv.FormatInt(c.Misses, 10),
			strconv.FormatInt(c.Evictions, 10),
			strconv.FormatInt(c.Refetches, 10),
			strconv.FormatInt(c.Prefetches, 10),
			strconv.FormatInt(c.PrefetchHits, 10),
			strconv.FormatInt(c.CapEnd, 10),
		})
	}
	for _, kn := range r.Kernels {
		for _, cap := range r.Caps {
			row(kn, cap, "off", r.Cells[kn][cap])
			if hc, ok := r.HeatCells[kn][cap]; ok {
				row(kn, cap, "on", hc)
			}
		}
	}
	return writeCSV(w, []string{"kernel", "cap", "heat", "makespan", "hit_rate",
		"hits", "misses", "evictions", "refetches", "prefetches", "prefetch_hits", "cap_end"}, rows)
}
