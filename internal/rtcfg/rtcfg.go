// Package rtcfg holds the partitioning geometry shared by both execution
// backends (the simulator and the cluster runtime): its defaults and its
// distribution rule. Keeping them in one validated helper guarantees the
// backends cannot silently diverge on what "default" means — a
// prerequisite for the Church-Rosser agreement tests, which compare array
// contents produced by different backends under identical geometry.
package rtcfg

import (
	"fmt"

	"repro/internal/timing"
)

// DefaultPEs is the default worker/virtual-PE count for the concurrent
// backends. The simulator defaults to 1 PE instead, so it passes its own
// default to Fill.
const DefaultPEs = 4

// MaxPEs is a generous-but-finite PE bound that catches garbage configs.
// The cluster's is tighter: its packed IDs give the PE index one byte.
const MaxPEs = 1 << 16

// Geometry is the partitioning geometry every backend agrees on: how many
// PEs exist and how large an I-structure page is.
type Geometry struct {
	PEs       int
	PageElems int
}

// Fill applies the shared defaults in place (zero or negative fields take
// the default) and validates the result. defaultPEs is the backend's PE
// default (rtcfg.DefaultPEs for the concurrent runtimes, 1 for the
// simulator).
func (g *Geometry) Fill(defaultPEs int) error {
	if g.PEs <= 0 {
		g.PEs = defaultPEs
	}
	if g.PageElems <= 0 {
		g.PageElems = timing.DefaultPageElems
	}
	if g.PEs > MaxPEs {
		return fmt.Errorf("rtcfg: %d PEs exceeds the supported maximum %d", g.PEs, MaxPEs)
	}
	return nil
}

// Distributes reports whether an ALLOCD of elems elements spreads the
// array over the PEs. Under two pages it stays on the allocating PE.
func (g Geometry) Distributes(elems int) bool {
	return g.PEs > 1 && elems >= 2*g.PageElems
}
