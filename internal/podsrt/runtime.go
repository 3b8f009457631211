// Package podsrt executes translated PODS programs with real concurrency:
// one goroutine per Subcompact Process, channels for inter-SP tokens, and a
// shared I-structure store with deferred reads.
//
// It is no longer a backend: programs run on the simulator (internal/sim)
// or on the cluster runtime (internal/cluster), and nothing outside this
// package and the benchmark harness imports it. It is kept only as the
// benchmark's comparison runtime (benchmark/layers.go runs SIMPLE on it),
// until that comparison is retired with it.
//
// The runtime honours SPAWND/Range-Filter semantics by assigning each SP
// instance a virtual PE, so the same partitioned program runs unchanged and
// its arrays can be checked against the simulator's.
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
}

func (c *Config) fill() error {
	g := rtcfg.Geometry{PEs: c.VirtualPEs, PageElems: c.PageElems}
	if err := g.Fill(rtcfg.DefaultPEs); err != nil {
		return err
	}
	c.VirtualPEs, c.PageElems = g.PEs, g.PageElems
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
	args, err := r.prog.EntryArgs(args)
	if err != nil {
		return nil, fmt.Errorf("podsrt: %w", err)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.cancel = cancel

	r.spawn(ctx, r.prog.Entry(), 0, args)
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
// the environment instance 0). A mailbox holds a token per slot (newInst),
// taken when its SP blocks: a send past that waits for the SP to block, or
// for the run to end.
func (r *Runtime) deliver(ctx context.Context, id int64, slot int, v isa.Value) {
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
	if slot < 0 || slot >= in.tmpl.NSlots {
		r.fail(fmt.Errorf("podsrt: token slot %d out of range for SP %q", slot, in.tmpl.Name))
		return
	}
	select {
	case in.mail <- token{slot: slot, val: v}:
	case <-ctx.Done():
	}
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
	physDist := dist && rtcfg.Geometry{PEs: r.cfg.VirtualPEs, PageElems: r.cfg.PageElems}.Distributes(elems)
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

func (r *Runtime) array(id int64) (*rtArray, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a := r.arrays[id]; a != nil {
		return a, nil
	}
	return nil, fmt.Errorf("unknown array %d", id)
}

// read returns the element if it is written; otherwise it queues w for the
// write to deliver and returns the absent (zero) Value.
func (a *rtArray) read(off int, w waiter) isa.Value {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.set[off] {
		return a.vals[off]
	}
	a.waiters[off] = append(a.waiters[off], w)
	return isa.Value{}
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

// exec runs one SP on the shared executor (isa.Run). Tokens wait in the
// instance's mailbox until the executor blocks on an absent slot; then the
// goroutine takes them until that slot is filled.
func (r *Runtime) exec(ctx context.Context, in *inst, args []isa.Value) {
	defer r.wg.Done()
	defer r.release(in.id)

	tmpl := in.tmpl
	if len(args) != tmpl.NParams {
		r.fail(fmt.Errorf("podsrt: %q spawned with %d args, want %d", tmpl.Name, len(args), tmpl.NParams))
		return
	}
	sp := &spRun{r: r, ctx: ctx, in: in}
	x := &sp.x
	x.Backend, x.Decoded, x.F, x.Self, x.Watch = sp, tmpl.Decoded(), make([]isa.Value, tmpl.NSlots), in.id, isa.None
	copy(x.F, args)
	for {
		switch isa.Run(x) {
		case isa.Block:
			for x.F[x.Blocked].Kind == isa.KindInvalid {
				select {
				case t := <-in.mail:
					x.F[t.slot] = t.val
				case <-ctx.Done():
					return
				}
			}
		case isa.Fault:
			r.fail(fmt.Errorf("podsrt: %q %w", tmpl.Name, x.Err))
			return
		default: // HALT, or an effect that failed the run
			return
		}
	}
}

// spRun is one SP goroutine's executor state and backend.
type spRun struct {
	x   isa.Exec
	r   *Runtime
	ctx context.Context
	in  *inst
}

// Effect performs one effect-class instruction against the shared store.
func (s *spRun) Effect(x *isa.Exec, ins *isa.DInstr) isa.Step {
	r, f := s.r, x.F
	var err error
	switch ins.Op {
	case isa.ALLOC, isa.ALLOCD:
		args := x.Args(ins)
		dims := make([]int, len(args))
		for i, a := range args {
			dims[i] = int(f[a].AsInt())
		}
		var id int64
		if id, err = r.alloc(s.in.tmpl.Code[x.PC].Comment, dims, ins.Op == isa.ALLOCD); err == nil {
			f[ins.Dst] = isa.Array(id)
		}

	case isa.AREAD, isa.AWRITE:
		var a *rtArray
		var off int
		if a, err = r.array(f[ins.A].I); err == nil {
			off, err = a.h.OffsetOf(f, x.Args(ins))
		}
		if err != nil {
			break
		}
		if ins.Op == isa.AREAD {
			f[ins.Dst] = a.read(off, waiter{inst: s.in, slot: int(ins.Dst)})
			break
		}
		var ws []waiter
		if ws, err = a.write(off, f[ins.B]); err == nil {
			for _, w := range ws {
				r.deliver(s.ctx, w.inst.id, w.slot, f[ins.B])
			}
		}

	case isa.ROWLO, isa.ROWHI, isa.COLLO, isa.COLHI, isa.UNIFLO, isa.UNIFHI:
		var h *istructure.Header
		if ins.Op != isa.UNIFLO && ins.Op != isa.UNIFHI {
			var a *rtArray
			if a, err = r.array(f[ins.A].I); err != nil {
				break
			}
			h = a.h
		}
		f[ins.Dst] = isa.Int(istructure.RangeFilter(ins, f, h, s.in.pe, r.cfg.VirtualPEs, nil))

	case isa.SPAWN, isa.SPAWND:
		child := r.prog.Template(int(ins.Imm.I))
		args := x.Args(ins)
		cargs := make([]isa.Value, len(args))
		for i, a := range args {
			cargs[i] = f[a]
		}
		if ins.Op == isa.SPAWND {
			for pe := 0; pe < r.cfg.VirtualPEs; pe++ {
				r.spawn(s.ctx, child, pe, cargs)
			}
		} else {
			r.spawn(s.ctx, child, s.in.pe, cargs)
		}

	case isa.SEND:
		slot := ins.Imm.I
		if args := x.Args(ins); len(args) > 0 {
			slot += f[args[0]].AsInt()
		}
		r.deliver(s.ctx, f[ins.A].I, int(slot), f[ins.B])
	}
	if err != nil {
		r.fail(fmt.Errorf("podsrt: %q pc %d: %w", s.in.tmpl.Name, x.PC, err))
		return isa.Suspend
	}
	return isa.Next
}
