package main

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/sim"
	"repro/internal/simple"
)

// arrayReader is the finished-run surface both backends offer
// (*cluster.Result and *sim.Machine).
type arrayReader interface {
	ReadArray(name string) (vals []float64, mask []bool, dims []int, err error)
	ArrayNames() []string
}

// reference is what every job of one spec is checked against.
type reference struct {
	arrays []string     // the arrays that define the output
	hash   uint64       // of those arrays in a sim run; unused when sim is the system under test
	hashed bool         // hash is set
	native *simple.Grid // SIMPLE only: the plain single-threaded result
}

// hashArrays folds the named arrays' values and presence masks into one
// FNV-1a hash. Unwritten elements contribute only their absent bit, so two
// runs agree exactly when they wrote the same elements with the same bits.
// The loop is written out because it runs once per element between jobs,
// where hash/fnv would make an interface call each time.
func hashArrays(out arrayReader, names []string) (uint64, error) {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime }
	for _, name := range names {
		vals, mask, _, err := out.ReadArray(name)
		if err != nil {
			return 0, err
		}
		for i := 0; i < len(name); i++ {
			mix(name[i])
		}
		for i, v := range vals {
			if !mask[i] {
				mix(0)
				continue
			}
			mix(1)
			bits := math.Float64bits(v)
			for b := 0; b < 64; b += 8 {
				mix(byte(bits >> b))
			}
		}
	}
	return h, nil
}

// reference runs spec s once on the simulator (numPEs PEs, the job's page
// geometry) and keeps the hash of its arrays; for SIMPLE it also runs the
// native grid. On the sim workload the simulator is under test, so the
// native grid is the only reference.
func (r *run) reference(parent int, s *jobSpec, agg *simAgg) (reference, error) {
	ref := reference{arrays: s.arrays}
	if s.simple > 0 {
		ref.native = simple.NewGrid(s.simple)
		timed(r.rec, parent, 0, "simple.Grid.Step", ref.native.Step)
	}
	if r.w.sim {
		return ref, nil
	}
	m, err := sim.New(r.env.progs[s.kernel], sim.Config{NumPEs: numPEs, PageElems: s.cfg.PageElems})
	if err != nil {
		return ref, err
	}
	var res *sim.Result
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	host := timed(r.rec, parent, 0, "sim.Run", func() { res, err = m.Run(s.args...) })
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return ref, err
	}
	agg.add(res, host)
	agg.mallocs += ms1.Mallocs - ms0.Mallocs
	if ref.arrays == nil {
		ref.arrays = m.ArrayNames()
	}
	ref.hash, err = hashArrays(m, ref.arrays)
	ref.hashed = true
	return ref, err
}

// check compares a finished job with the reference.
func (ref *reference) check(out arrayReader) error {
	if ref.hashed {
		got, err := hashArrays(out, ref.arrays)
		if err != nil {
			return err
		}
		if got != ref.hash {
			return fmt.Errorf("output hash %016x, reference %016x", got, ref.hash)
		}
	}
	if ref.native != nil {
		return checkNative(out, ref.native)
	}
	return nil
}

// gridArrays maps SIMPLE's source-level array names to the native grid's
// fields.
func gridArrays(g *simple.Grid) map[string][]float64 {
	return map[string][]float64{
		"r": g.R, "z": g.Z, "u": g.U, "w": g.W, "rho": g.Rho, "p": g.P, "q": g.Q, "e": g.E,
		"un": g.Un, "wn": g.Wn, "rn": g.Rn, "zn": g.Zn,
		"rhon": g.Rhon, "pn": g.Pn, "qn": g.Qn, "en": g.En, "tn": g.Tn,
		"cpa": g.Cpa, "dpa": g.Dpa, "th": g.Th, "cpb": g.Cpb, "dpb": g.Dpb, "t2": g.T2,
	}
}

// sweepScratch are SIMPLE's conduction work arrays, written in the interior
// only; every other array must be written everywhere.
var sweepScratch = map[string]bool{"cpa": true, "dpa": true, "cpb": true, "dpb": true}

// checkNative compares every SIMPLE array with the native grid to 1e-9
// relative.
func checkNative(out arrayReader, g *simple.Grid) error {
	for name, want := range gridArrays(g) {
		vals, mask, _, err := out.ReadArray(name)
		if err != nil {
			return err
		}
		if len(vals) != len(want) {
			return fmt.Errorf("%s: %d elements, native grid has %d", name, len(vals), len(want))
		}
		for i, v := range vals {
			if !mask[i] {
				if !sweepScratch[name] {
					return fmt.Errorf("%s[%d] never written", name, i)
				}
				continue
			}
			if math.Abs(v-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
				return fmt.Errorf("%s[%d] = %v, native %v", name, i, v, want[i])
			}
		}
	}
	return nil
}
