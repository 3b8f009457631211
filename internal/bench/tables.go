package bench

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sim"
	"repro/internal/simple"
	"repro/internal/timing"
)

// TableT1 renders the §5.1 instruction-execution-time table next to the
// cost model actually used by the simulator, so any drift is visible.
func TableT1() string {
	type row struct {
		name  string
		paper float64 // µs from the paper
		op    isa.Opcode
		flt   bool
	}
	rows := []row{
		{"integer add", 0.300, isa.IADD, false},
		{"integer subtraction", 0.300, isa.ISUB, false},
		{"bitwise logical", 0.558, isa.AND, false},
		{"floating point negate", 0.555, isa.FNEG, false},
		{"floating point compare", 5.803, isa.CMPLT, true},
		{"floating point power", 96.418, isa.FPOW, false},
		{"floating point abs", 12.626, isa.FABS, false},
		{"floating point square root", 18.929, isa.FSQRT, false},
		{"floating point multiply", 7.217, isa.FMUL, false},
		{"floating point division", 10.707, isa.FDIV, false},
		{"floating point addition", 6.753, isa.FADD, false},
		{"floating point subtraction", 6.757, isa.FSUB, false},
	}
	var b strings.Builder
	b.WriteString("Table T1 — iPSC/2 instruction execution times (paper §5.1) vs simulator cost model\n\n")
	fmt.Fprintf(&b, "%-30s %12s %12s\n", "instruction", "paper (µs)", "model (µs)")
	for _, r := range rows {
		model := float64(timing.InstrTime(r.op, r.flt)) / 1000.0
		mark := ""
		if model != r.paper {
			mark = "  <-- MISMATCH"
		}
		fmt.Fprintf(&b, "%-30s %12.3f %12.3f%s\n", r.name, r.paper, model, mark)
	}
	b.WriteString("\nderived entries (documented in internal/timing):\n")
	fmt.Fprintf(&b, "%-30s %12s %12.3f\n", "integer multiply", "(derived)", float64(timing.IntMulTime)/1000)
	fmt.Fprintf(&b, "%-30s %12s %12.3f\n", "local array read", "2.700", float64(timing.LocalArrayReadTime)/1000)
	fmt.Fprintf(&b, "%-30s %12s %12.3f\n", "context switch", "1.312", float64(timing.ContextSwitchTime)/1000)
	return b.String()
}

// TableT2 renders the §5.1 Array Manager / message-cost table.
func TableT2() string {
	var b strings.Builder
	b.WriteString("Table T2 — Array Manager task times and message costs (paper §5.1)\n\n")
	f := func(name string, paperUS, modelNS float64) {
		fmt.Fprintf(&b, "%-34s %12.1f %12.1f\n", name, paperUS, modelNS/1000)
	}
	fmt.Fprintf(&b, "%-34s %12s %12s\n", "task", "paper (µs)", "model (µs)")
	f("memory read", 0.3, float64(timing.MemReadTime))
	f("memory write", 0.4, float64(timing.MemWriteTime))
	f("unit-to-unit signal", 1.0, float64(timing.UnitSignalTime))
	f("enqueue early read", 2.9, float64(timing.EnqueuedReadTime))
	f("allocate array (+signal)", 101.0, float64(timing.AMAllocTime))
	f("matching-unit lookup", 15.0, float64(timing.MatchTime))
	f("memory-manager list op", 0.9, float64(timing.MMListOpTime))
	f("token in batched message (RU)", 19.5, float64(timing.SmallMessageRUTime))
	f("network propagation (2.5 hops)", 2.5, float64(timing.NetworkTime))
	b.WriteString("\nDunigan message equation (ORNL/TM-10881):\n")
	fmt.Fprintf(&b, "  <=100 bytes: %8.1f µs (paper: 390)\n", float64(timing.DuniganTime(100))/1000)
	fmt.Fprintf(&b, "  256-byte page: %6.1f µs (paper: 697 + 0.4*256 = 799.4)\n", float64(timing.DuniganTime(256))/1000)
	fmt.Fprintf(&b, "  page send (32 elems, owner AM): %5.1f µs\n", float64(timing.PageSendTime(32))/1000)
	fmt.Fprintf(&b, "  page receive (32 elems):        %5.1f µs\n", float64(timing.PageReceiveTime(32))/1000)
	return b.String()
}

// X1Result is the matrix-multiply speed-up experiment.
type X1Result struct {
	N       int
	PEs     []int
	Speedup []float64
}

// MatmulX1 runs matmul across PE counts.
func MatmulX1(n int, peCounts []int) (*X1Result, error) {
	r := &X1Result{N: n, PEs: peCounts}
	var base float64
	for _, pes := range peCounts {
		res, err := Run(kernels.Matmul, "matmul.id", n, pes, VariantPODS)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = float64(res.Time)
		}
		r.Speedup = append(r.Speedup, base/float64(res.Time))
	}
	return r, nil
}

// Format renders the experiment.
func (r *X1Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "X1 — %dx%d matrix multiply speed-up (generic example, §5.2)\n\n", r.N, r.N)
	fmt.Fprintf(&b, "%-8s", "PEs")
	for _, p := range r.PEs {
		fmt.Fprintf(&b, "%8d", p)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-8s", "speedup")
	for _, v := range r.Speedup {
		fmt.Fprintf(&b, "%8.2f", v)
	}
	b.WriteByte('\n')
	return b.String()
}

// PageSweepResult measures sensitivity to the I-structure page size.
type PageSweepResult struct {
	N, PEs  int
	Pages   []int
	Seconds []float64
}

// PageSweep reruns SIMPLE with several page sizes. The paper (citing
// [BIC89]) states the page size "is not a critical parameter"; this
// experiment quantifies that claim on our reproduction.
func PageSweep(n, pes int, pages []int) (*PageSweepResult, error) {
	prog, err := Compile("simple.id", simple.Source, true)
	if err != nil {
		return nil, err
	}
	r := &PageSweepResult{N: n, PEs: pes, Pages: pages}
	for _, pg := range pages {
		m, err := sim.New(prog, sim.Config{NumPEs: pes, PageElems: pg})
		if err != nil {
			return nil, err
		}
		res, err := m.Run(isa.Int(int64(n)))
		if err != nil {
			return nil, fmt.Errorf("page sweep (page=%d): %w", pg, err)
		}
		r.Seconds = append(r.Seconds, res.Seconds())
	}
	return r, nil
}

// Format renders the sweep with the spread between best and worst.
func (r *PageSweepResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Page-size sweep — SIMPLE %dx%d on %d PEs (paper: not a critical parameter)\n\n", r.N, r.N, r.PEs)
	lo, hi := r.Seconds[0], r.Seconds[0]
	for i, pg := range r.Pages {
		fmt.Fprintf(&b, "  %3d elems/page: %8.3f s\n", pg, r.Seconds[i])
		if r.Seconds[i] < lo {
			lo = r.Seconds[i]
		}
		if r.Seconds[i] > hi {
			hi = r.Seconds[i]
		}
	}
	fmt.Fprintf(&b, "  spread: %.2fx\n", hi/lo)
	return b.String()
}

// AblationResult compares PODS against its ablated variants at one size.
type AblationResult struct {
	N, PEs  int
	Seconds map[string]float64
}

// Ablations measures the contribution of the paper's mechanisms at the
// given configuration: distribution off (§4.2), page cache off (§4),
// control-driven stalls (§6 baseline).
func Ablations(n, pes int) (*AblationResult, error) {
	r := &AblationResult{N: n, PEs: pes, Seconds: map[string]float64{}}
	for _, v := range []Variant{VariantPODS, VariantNoDist, VariantNoCache, VariantPR} {
		res, err := RunSimple(n, pes, v)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v, err)
		}
		r.Seconds[v.String()] = res.Seconds()
	}
	return r, nil
}

// Format renders the ablation table.
func (r *AblationResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations — SIMPLE %dx%d on %d PEs (virtual seconds, lower is better)\n\n", r.N, r.N, r.PEs)
	base := r.Seconds["PODS"]
	for _, k := range []string{"PODS", "nodist", "nocache", "P&R"} {
		v := r.Seconds[k]
		fmt.Fprintf(&b, "%-10s %10.3f s   %6.2fx vs PODS\n", k, v, v/base)
	}
	return b.String()
}
