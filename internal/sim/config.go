package sim

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/rtcfg"
	"repro/internal/timing"
)

// Config parameterizes a simulated PODS machine.
type Config struct {
	// NumPEs is the number of processing elements (paper: 1–32).
	NumPEs int

	// PageElems is the I-structure page size in elements (paper: 32).
	PageElems int

	// Stall switches the machine into the Pingali&Rogers-style baseline
	// (§6): control-driven execution with no latency tolerance — the EU
	// waits out every remote array access instead of context-switching to
	// another ready SP. Local producer-consumer waits still reschedule,
	// which models a correct static ordering of the compiled code.
	Stall bool

	// ZeroOverhead models the "most efficient sequential version" of
	// §5.3.4: all PODS machinery (matching, process management, routing,
	// array-manager service) is free and instantaneous; only instruction
	// execution and 2.7 µs array accesses cost time. Requires NumPEs == 1.
	ZeroOverhead bool

	// DisableCache turns off the software page cache of §4 (ablation):
	// every remote read fetches just its value from the owner, nothing is
	// cached, and locality of reference is not exploited.
	DisableCache bool

	// Trace, when non-nil, receives one line per SP lifecycle event
	// (spawn, block, unblock, halt, array allocation) with virtual
	// timestamps — the paper's process-state view (running/ready/blocked)
	// made observable.
	Trace io.Writer
}

func (c *Config) fill() error {
	g := rtcfg.Geometry{PEs: c.NumPEs, PageElems: c.PageElems}
	if err := g.Fill(1); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	c.NumPEs, c.PageElems = g.PEs, g.PageElems
	if c.ZeroOverhead && c.NumPEs != 1 {
		return fmt.Errorf("sim: ZeroOverhead requires NumPEs == 1, got %d", c.NumPEs)
	}
	return nil
}

// UnitStats is the accumulated busy time of one PE's functional units.
type UnitStats struct {
	EU timing.Duration // Execution Unit
	MU timing.Duration // Matching Unit ("MS" in the paper's Figure 8)
	MM timing.Duration // Memory Manager
	AM timing.Duration // Array Manager
	RU timing.Duration // Routing Unit
}

// Counts aggregates machine-wide dynamic event counts.
type Counts struct {
	Instructions  int64
	CtxSwitches   int64
	SPsCreated    int64
	SPsRemote     int64 // SP instances created by remote (LD) spawns
	TokensMatched int64 // Matching Unit operations
	SmallMsgs     int64 // <100 B network messages (tokens, requests, spawns)
	PageMsgs      int64 // page transfers
	LocalReads    int64 // array reads satisfied from owned memory
	RemoteReads   int64 // array reads that needed cache or network
	CacheHits     int64
	CacheMisses   int64
	DeferredReads int64 // I-structure reads enqueued on absent elements
	LocalWrites   int64
	RemoteWrites  int64
	ArraysAlloced int64
}

// Result reports one completed simulation.
type Result struct {
	// Time is the total virtual execution time in nanoseconds.
	Time timing.Duration

	// PEs holds per-PE unit busy times; utilization is busy/Time.
	PEs []UnitStats

	Counts Counts

	// MainValue holds the entry block's returned value, if it returns one.
	MainValue *ReturnedValue
}

// ReturnedValue wraps the program's result token: F holds a float
// result, I any other kind's payload.
type ReturnedValue struct {
	Kind string
	I    int64
	F    float64
}

// Seconds converts the virtual time to seconds.
func (r *Result) Seconds() float64 { return float64(r.Time) / 1e9 }

// Utilization returns the average utilization of a unit across PEs,
// selected by name ("EU", "MU", "MM", "AM", "RU").
func (r *Result) Utilization(unit string) float64 {
	if r.Time == 0 || len(r.PEs) == 0 {
		return 0
	}
	var sum timing.Duration
	for _, pe := range r.PEs {
		switch unit {
		case "EU":
			sum += pe.EU
		case "MU", "MS":
			sum += pe.MU
		case "MM":
			sum += pe.MM
		case "AM":
			sum += pe.AM
		case "RU":
			sum += pe.RU
		}
	}
	return float64(sum) / float64(r.Time) / float64(len(r.PEs))
}

// String renders a compact summary.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "time=%.3f ms  EU=%.1f%% MU=%.1f%% RU=%.1f%% AM=%.1f%% MM=%.1f%%",
		float64(r.Time)/1e6,
		100*r.Utilization("EU"), 100*r.Utilization("MU"), 100*r.Utilization("RU"),
		100*r.Utilization("AM"), 100*r.Utilization("MM"))
	fmt.Fprintf(&b, "  instrs=%d ctx=%d sps=%d msgs=%d pages=%d",
		r.Counts.Instructions, r.Counts.CtxSwitches, r.Counts.SPsCreated,
		r.Counts.SmallMsgs, r.Counts.PageMsgs)
	return b.String()
}

// PerPE renders a per-PE utilization table (load balance view).
func (r *Result) PerPE() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %8s %8s %8s %8s %8s\n", "PE", "EU", "MU", "RU", "AM", "MM")
	for i, u := range r.PEs {
		pct := func(d timing.Duration) float64 {
			if r.Time == 0 {
				return 0
			}
			return 100 * float64(d) / float64(r.Time)
		}
		fmt.Fprintf(&b, "%-5d %7.1f%% %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
			i, pct(u.EU), pct(u.MU), pct(u.RU), pct(u.AM), pct(u.MM))
	}
	return b.String()
}

// LoadImbalance reports the ratio of the busiest to the average EU busy
// time across PEs (1.0 = perfectly balanced).
func (r *Result) LoadImbalance() float64 {
	if len(r.PEs) == 0 {
		return 1
	}
	var max, sum timing.Duration
	for _, u := range r.PEs {
		if u.EU > max {
			max = u.EU
		}
		sum += u.EU
	}
	if sum == 0 {
		return 1
	}
	avg := float64(sum) / float64(len(r.PEs))
	return float64(max) / avg
}
