// Package podsrt executes translated PODS programs with real concurrency:
// one goroutine per Subcompact Process, channels for inter-SP tokens, and a
// shared I-structure store with deferred reads. It is the "run it on a real
// shared-memory multiprocessor" counterpart to the timing-accurate
// discrete-event simulator in internal/sim — goroutines play the role of
// SPs and channel sends the role of dataflow tokens (the mapping the paper's
// model invites on modern hardware).
//
// Distribution still matters: the runtime honours SPAWND/Range-Filter
// semantics by assigning each SP instance a virtual PE, so the same
// partitioned program runs unchanged and the Church-Rosser property can be
// checked against the simulator's results.
package podsrt

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/isa"
	"repro/internal/istructure"
	"repro/internal/rtcfg"
)

// Config parameterizes the runtime.
type Config struct {
	// VirtualPEs is the number of copies a SPAWND creates (and the divisor
	// for Range Filters). Defaults to 4.
	VirtualPEs int

	// PageElems sets the logical partitioning geometry (Range Filters
	// follow it exactly as in the simulator). Defaults to 32.
	PageElems int

	// DistThreshold mirrors sim.Config.DistThreshold. Defaults to 2 pages.
	DistThreshold int
}

func (c *Config) fill() error {
	g := rtcfg.Geometry{PEs: c.VirtualPEs, PageElems: c.PageElems, DistThreshold: c.DistThreshold}
	if err := g.Fill(rtcfg.DefaultPEs); err != nil {
		return err
	}
	c.VirtualPEs, c.PageElems, c.DistThreshold = g.PEs, g.PageElems, g.DistThreshold
	return nil
}

// Runtime executes one program.
type Runtime struct {
	cfg  Config
	prog *isa.Program

	wg sync.WaitGroup

	mu        sync.Mutex
	arrays    map[int64]*rtArray
	byName    map[string]int64
	nameSeq   []string
	nextArray int64
	nextSP    int64
	insts     map[int64]*inst
	result    *isa.Value
	err       error

	cancel context.CancelFunc
}

type rtArray struct {
	h  *istructure.Header
	mu sync.Mutex
	// vals/set cover the whole array (shared memory).
	vals    []isa.Value
	set     []bool
	waiters map[int][]waiter
}

type waiter struct {
	inst *inst
	slot int
}

type token struct {
	slot int
	val  isa.Value
}

type inst struct {
	id   int64
	tmpl *isa.Template
	pe   int
	mail chan token
}

// New builds a runtime for a validated program.
func New(prog *isa.Program, cfg Config) (*Runtime, error) {
	if err := cfg.fill(); err != nil {
		return nil, fmt.Errorf("podsrt: %w", err)
	}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("podsrt: %w", err)
	}
	return &Runtime{
		cfg:    cfg,
		prog:   prog,
		arrays: make(map[int64]*rtArray),
		byName: make(map[string]int64),
		insts:  make(map[int64]*inst),
	}, nil
}

func (r *Runtime) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
		if r.cancel != nil {
			r.cancel()
		}
	}
	r.mu.Unlock()
}

// Run executes the program to completion (all SPs terminated) and returns
// the entry block's result value, if any. The context bounds the run; a
// blocked dataflow program (deadlock) is reported when ctx expires.
func (r *Runtime) Run(ctx context.Context, args ...isa.Value) (*isa.Value, error) {
	entry := r.prog.Entry()
	want := entry.NParams
	if entry.HasResult {
		want -= 2
	}
	if len(args) != want {
		return nil, fmt.Errorf("podsrt: entry %q wants %d args, got %d", entry.Name, want, len(args))
	}
	if entry.HasResult {
		args = append(append([]isa.Value{}, args...), isa.SPRef(0), isa.Int(0))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.cancel = cancel

	r.spawn(ctx, entry, 0, args)
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		r.wg.Wait() // goroutines unblock via ctx select
		r.mu.Lock()
		defer r.mu.Unlock()
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("podsrt: run cancelled (deadlocked dataflow program?): %w", ctx.Err())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return nil, r.err
	}
	return r.result, nil
}

func (r *Runtime) newInst(tmpl *isa.Template, pe int) *inst {
	r.mu.Lock()
	r.nextSP++
	in := &inst{
		id:   r.nextSP,
		tmpl: tmpl,
		pe:   pe,
		// One outstanding external token per slot at most (reads are
		// cleared at issue and consumed before reissue), so NSlots+1
		// buffering means deliveries never block.
		mail: make(chan token, tmpl.NSlots+1),
	}
	r.insts[in.id] = in
	r.mu.Unlock()
	return in
}

func (r *Runtime) spawn(ctx context.Context, tmpl *isa.Template, pe int, args []isa.Value) {
	in := r.newInst(tmpl, pe)
	r.wg.Add(1)
	go r.exec(ctx, in, args)
}

// deliver routes a token to an instance (or records the program result for
// the environment instance 0).
func (r *Runtime) deliver(id int64, slot int, v isa.Value) {
	if id == 0 {
		r.mu.Lock()
		val := v
		r.result = &val
		r.mu.Unlock()
		return
	}
	r.mu.Lock()
	in := r.insts[id]
	r.mu.Unlock()
	if in == nil {
		r.fail(fmt.Errorf("podsrt: token for dead SP %d", id))
		return
	}
	in.mail <- token{slot: slot, val: v}
}

func (r *Runtime) release(id int64) {
	r.mu.Lock()
	delete(r.insts, id)
	r.mu.Unlock()
}

// alloc creates an array shared across all virtual PEs.
func (r *Runtime) alloc(name string, dims []int, dist bool) (int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextArray++
	id := r.nextArray
	elems := 1
	for _, d := range dims {
		elems *= d
	}
	physDist := dist && elems >= r.cfg.DistThreshold
	h, err := istructure.NewHeader(id, name, dims, r.cfg.PageElems, r.cfg.VirtualPEs, 0, physDist)
	if err != nil {
		return 0, err
	}
	if name == "" {
		name = fmt.Sprintf("anon%d", id)
	}
	r.arrays[id] = &rtArray{
		h:       h,
		vals:    make([]isa.Value, elems),
		set:     make([]bool, elems),
		waiters: make(map[int][]waiter),
	}
	if _, seen := r.byName[name]; !seen {
		r.nameSeq = append(r.nameSeq, name)
	}
	r.byName[name] = id
	return id, nil
}

func (r *Runtime) array(id int64) *rtArray {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.arrays[id]
}

// read delivers the element to (inst, slot) now or when written.
func (a *rtArray) read(off int, w waiter, deliver func(id int64, slot int, v isa.Value)) {
	a.mu.Lock()
	if a.set[off] {
		v := a.vals[off]
		a.mu.Unlock()
		deliver(w.inst.id, w.slot, v)
		return
	}
	a.waiters[off] = append(a.waiters[off], w)
	a.mu.Unlock()
}

func (a *rtArray) write(off int, v isa.Value) ([]waiter, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.set[off] {
		return nil, &istructure.SingleAssignmentError{Array: a.h.Name, Off: off}
	}
	a.vals[off] = v
	a.set[off] = true
	ws := a.waiters[off]
	delete(a.waiters, off)
	return ws, nil
}

// ReadArray gathers a named array's contents after a run.
func (r *Runtime) ReadArray(name string) (vals []float64, mask []bool, dims []int, err error) {
	r.mu.Lock()
	id, ok := r.byName[name]
	var a *rtArray
	if ok {
		a = r.arrays[id]
	}
	r.mu.Unlock()
	if a == nil {
		return nil, nil, nil, fmt.Errorf("podsrt: unknown array %q", name)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	vals = make([]float64, len(a.vals))
	mask = make([]bool, len(a.vals))
	for i := range a.vals {
		if a.set[i] {
			vals[i] = a.vals[i].AsFloat()
			mask[i] = true
		}
	}
	return vals, mask, append([]int(nil), a.h.Dims...), nil
}

// exec interprets one SP to completion.
func (r *Runtime) exec(ctx context.Context, in *inst, args []isa.Value) {
	defer r.wg.Done()
	defer r.release(in.id)

	tmpl := in.tmpl
	frame := make([]isa.Value, tmpl.NSlots)
	present := make([]bool, tmpl.NSlots)
	if len(args) != tmpl.NParams {
		r.fail(fmt.Errorf("podsrt: %q spawned with %d args, want %d", tmpl.Name, len(args), tmpl.NParams))
		return
	}
	copy(frame, args)
	for i := range args {
		present[i] = true
	}

	drain := func() {
		for {
			select {
			case t := <-in.mail:
				frame[t.slot] = t.val
				present[t.slot] = true
			default:
				return
			}
		}
	}
	// await blocks until the slot is present (tokens may fill other slots
	// meanwhile); returns false when the run is cancelled.
	await := func(slot int) bool {
		for !present[slot] {
			select {
			case t := <-in.mail:
				frame[t.slot] = t.val
				present[t.slot] = true
			case <-ctx.Done():
				return false
			}
		}
		return true
	}

	var inputs [8]int
	pc := 0
	for {
		if pc < 0 || pc >= len(tmpl.Code) {
			r.fail(fmt.Errorf("podsrt: %q pc %d out of range", tmpl.Name, pc))
			return
		}
		ins := &tmpl.Code[pc]
		drain()
		for _, s := range ins.Inputs(inputs[:0]) {
			if !await(s) {
				return
			}
		}
		next := pc + 1
		if isa.IsScalar(ins.Op) {
			var bv isa.Value
			if ins.B != isa.None {
				bv = frame[ins.B]
			}
			v, err := isa.EvalScalar(ins.Op, frame[ins.A], bv)
			if err != nil {
				r.fail(fmt.Errorf("podsrt: %q pc %d: %v", tmpl.Name, pc, err))
				return
			}
			frame[ins.Dst], present[ins.Dst] = v, true
			pc = next
			continue
		}
		switch ins.Op {
		case isa.NOP:
		case isa.CONST:
			frame[ins.Dst], present[ins.Dst] = ins.Imm, true
		case isa.MOVE:
			frame[ins.Dst], present[ins.Dst] = frame[ins.A], true
		case isa.CLEAR:
			present[ins.Dst] = false
		case isa.SELF:
			frame[ins.Dst], present[ins.Dst] = isa.SPRef(in.id), true

		case isa.JUMP:
			next = ins.Target
		case isa.BRFALSE:
			if !frame[ins.A].AsBool() {
				next = ins.Target
			}
		case isa.BRTRUE:
			if frame[ins.A].AsBool() {
				next = ins.Target
			}

		case isa.ALLOC, isa.ALLOCD:
			dims := make([]int, len(ins.Args))
			for i, s := range ins.Args {
				dims[i] = int(frame[s].AsInt())
			}
			id, err := r.alloc(ins.Comment, dims, ins.Op == isa.ALLOCD)
			if err != nil {
				r.fail(err)
				return
			}
			frame[ins.Dst], present[ins.Dst] = isa.Array(id), true

		case isa.AREAD:
			a := r.array(frame[ins.A].I)
			if a == nil {
				r.fail(fmt.Errorf("podsrt: %q: read of unknown array", tmpl.Name))
				return
			}
			off, err := a.h.OffsetOf(frame, ins.Args)
			if err != nil {
				r.fail(err)
				return
			}
			present[ins.Dst] = false
			a.read(off, waiter{inst: in, slot: ins.Dst}, r.deliver)

		case isa.AWRITE:
			a := r.array(frame[ins.A].I)
			if a == nil {
				r.fail(fmt.Errorf("podsrt: %q: write to unknown array", tmpl.Name))
				return
			}
			off, err := a.h.OffsetOf(frame, ins.Args)
			if err != nil {
				r.fail(err)
				return
			}
			ws, err := a.write(off, frame[ins.B])
			if err != nil {
				r.fail(fmt.Errorf("podsrt: %q: %w", tmpl.Name, err))
				return
			}
			for _, w := range ws {
				r.deliver(w.inst.id, w.slot, frame[ins.B])
			}

		case isa.ROWLO, isa.ROWHI:
			a := r.array(frame[ins.A].I)
			lo, hi, ok := a.h.OwnedRows(in.pe)
			if !ok {
				lo, hi = 1, 0
			}
			v := lo
			if ins.Op == isa.ROWHI {
				v = hi
			}
			frame[ins.Dst], present[ins.Dst] = isa.Int(v), true
		case isa.COLLO, isa.COLHI:
			a := r.array(frame[ins.A].I)
			lo, hi, ok := a.h.OwnedCols(in.pe, frame[ins.B].AsInt())
			if !ok {
				lo, hi = 1, 0
			}
			v := lo
			if ins.Op == isa.COLHI {
				v = hi
			}
			frame[ins.Dst], present[ins.Dst] = isa.Int(v), true
		case isa.UNIFLO, isa.UNIFHI:
			lo := frame[ins.A].AsInt()
			hi := frame[ins.B].AsInt()
			n := hi - lo + 1
			if n < 0 {
				n = 0
			}
			pes := int64(r.cfg.VirtualPEs)
			id := int64(in.pe)
			v := lo + n*id/pes
			if ins.Op == isa.UNIFHI {
				v = lo + n*(id+1)/pes - 1
			}
			frame[ins.Dst], present[ins.Dst] = isa.Int(v), true

		case isa.SPAWN, isa.SPAWND:
			child := r.prog.Template(int(ins.Imm.I))
			cargs := make([]isa.Value, len(ins.Args))
			for i, s := range ins.Args {
				cargs[i] = frame[s]
			}
			if ins.Op == isa.SPAWND {
				for pe := 0; pe < r.cfg.VirtualPEs; pe++ {
					r.spawn(ctx, child, pe, cargs)
				}
			} else {
				r.spawn(ctx, child, in.pe, cargs)
			}

		case isa.SEND:
			ref := frame[ins.A]
			base := int64(0)
			if len(ins.Args) > 0 {
				base = frame[ins.Args[0]].AsInt()
			}
			r.deliver(ref.I, int(base+ins.Imm.I), frame[ins.B])

		case isa.HALT:
			return

		default:
			r.fail(fmt.Errorf("podsrt: %q pc %d: unimplemented opcode %s", tmpl.Name, pc, ins.Op))
			return
		}
		pc = next
	}
}
