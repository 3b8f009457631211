package cluster

import (
	"context"
	"fmt"
	"math"
	"net"
	"sync"

	"repro/internal/isa"
)

// This file turns the one-shot cluster runtime into a job service. A Fleet
// owns the transport (in-process mailboxes or TCP connections) and the
// worker hosts on the far side; jobs are submitted to the running fleet,
// execute concurrently, and tear down individually without disturbing each
// other.
//
// The key to coexistence is that nothing per-run is shared: each submitted
// job gets its own worker per PE — the core's shard and run queue plus the
// layers its knobs arm — and its own driver loop, and every frame is
// stamped with the job ID so the single physical wire multiplexes many
// logical clusters: each endpoint's inbox table puts a job's frames
// straight into that job's inbox, one hop from sender to receiver. Job IDs
// also ride inside packed SP/array/sweep IDs (bits 48+), so two jobs'
// object namespaces can never collide even in shared diagnostics.

// jobEndpoint is a job's private view of the fleet wire: sends stamp the
// job ID and go out on the shared transport endpoint (which stamps From);
// receives drain the job's own inbox, which the transport fills directly.
type jobEndpoint struct {
	job int32
	out Endpoint
	in  *mailbox
}

func (e *jobEndpoint) Send(to int, m *Msg) error {
	m.Job = e.job
	return e.out.Send(to, m)
}

func (e *jobEndpoint) Close() error {
	e.in.close()
	return nil
}

// repoint installs an updated peer address list after a recovery (the
// channel transport has nothing to do): a TCP peer whose address changed
// was replaced, so its cached connection (which may point at the dead
// incarnation) is dropped and redialed lazily on the next send.
func (e *jobEndpoint) repoint(peers []string) {
	if t, ok := e.out.(*tcpEndpoint); ok {
		for i := 0; i < len(peers) && i < len(t.links)-1; i++ {
			t.repoint(i, peers[i], nil)
		}
	}
}

// fleetHost runs job lifecycle on one PE. Its endpoint's inbox table
// delivers every job frame straight to the job's worker, so the host sees
// only fleet-level frames, KJobStart (start a worker on the inbox the table
// opened) and KJobEnd (forget it: the table closed its inbox).
type fleetHost struct {
	pe, n       int
	ep          Endpoint
	in          *inboxTable
	resolveProg func(job int32, wire []byte) (*isa.Program, error)

	jobs map[int32]*mailbox // inboxes of the workers this host started
	wg   sync.WaitGroup
}

func newFleetHost(pe, n int, ep Endpoint, in *inboxTable, resolveProg func(int32, []byte) (*isa.Program, error)) *fleetHost {
	return &fleetHost{pe: pe, n: n, ep: ep, in: in, resolveProg: resolveProg, jobs: make(map[int32]*mailbox)}
}

// serve runs the host until the fleet stops (fleet-level KStop), the
// endpoint dies, or the context ends; then it closes every inbox it
// started and the table with them.
func (h *fleetHost) serve(ctx context.Context) {
	defer func() {
		h.in.shut()
		for _, box := range h.jobs {
			box.close()
		}
		h.wg.Wait()
	}()
	for {
		m, err := h.in.box.recv(ctx)
		if err != nil {
			return
		}
		switch m.Kind {
		case KJobStart:
			h.startJob(ctx, m)
		case KJobEnd:
			delete(h.jobs, m.Job)
		case KStop:
			return
		case KFail:
			// A transport decode failure (minted by the pump, unattributable
			// to a job) is fanned out to every live job so none hangs on a
			// half-dead wire.
			for _, box := range h.jobs {
				c := *m
				box.put(&c)
			}
		}
	}
}

// startJob instantiates a worker for the job described by m. A replacement
// start for a job already running here (driver-side respawn after a stall)
// retires the old instance first: its frames carry the old incarnation and
// are fenced by every receiver.
func (h *fleetHost) startJob(ctx context.Context, m *Msg) {
	job, c := m.Job, m.Cfg
	if old := h.jobs[job]; old != nil {
		old.close()
		delete(h.jobs, job)
	}
	prog, err := h.resolveProg(job, c.Prog)
	if err != nil {
		c.inbox.close()
		// Inc 1<<30 outruns any job-level incarnation fence so the
		// driver's recovery filter cannot swallow the failure.
		_ = h.ep.Send(h.n, &Msg{
			Kind: KFail, Job: job, Inc: 1 << 30,
			Name: fmt.Sprintf("pe %d: job start: %v", h.pe, err),
		})
		return
	}

	// The job's knobs are the driver's; the PE count is this fleet's (it
	// does not cross a wire).
	cfg := c.Job
	cfg.NumPEs = h.n
	w := newWorker(h.pe, &cfg, prog, &jobEndpoint{job: job, out: h.ep, in: c.inbox})
	w.job = job
	if cfg.Recover {
		var inc int32
		if h.pe < len(c.Incs) {
			inc = c.Incs[h.pe]
		}
		w.enableRecovery(inc, m.Epoch, c.Incs)
	}
	h.jobs[job] = c.inbox
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		w.run(ctx)
	}()
}

// Fleet is a persistent cluster: NumPEs workers stay up across jobs, over
// the in-process channel transport (Config.Workers empty) or TCP. Submit
// runs one program on the fleet; any number of Submits may be in flight
// concurrently, bounded by Config.MaxJobs.
type Fleet struct {
	cfg Config
	n   int
	ep  Endpoint

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu          sync.Mutex
	jobs        map[int32]*fleetJob
	progs       map[int32]*isa.Program // chan-mode program registry
	nextJob     int32
	closed      bool
	hostInc     []int32  // per-PE host generation (TCP re-homing fence)
	deadPending []bool   // host died; not yet re-homed
	peers       []string // current TCP worker addresses
	sparesLeft  []string

	in   *inboxTable // the driver endpoint's: every job's inbox opens here
	cnet *chanTransport
	tcp  *tcpEndpoint
}

// fleetJob is the driver-side record of a live job: its inbox and what
// Submit needs to restart workers during recovery.
type fleetJob struct {
	box  *mailbox
	cfg  Config
	prog []byte // serialized program (TCP mode; nil on the channel transport)
}

// OpenFleet brings a persistent fleet up. Geometry-free: per-job knobs
// (page size, stealing, budgets, ...) are chosen at Submit time; the fleet
// config fixes the transport, PE count, fault injection, and the
// concurrent-job cap.
func OpenFleet(ctx context.Context, cfg Config) (*Fleet, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:   cfg,
		n:     cfg.NumPEs,
		jobs:  make(map[int32]*fleetJob),
		progs: make(map[int32]*isa.Program),
	}
	f.ctx, f.cancel = context.WithCancel(ctx)
	f.hostInc = make([]int32, f.n)
	f.deadPending = make([]bool, f.n)

	if len(cfg.Workers) > 0 {
		if err := f.dialTCP(ctx, cfg); err != nil {
			f.cancel()
			return nil, err
		}
	} else {
		killPE := -1
		if cfg.KillAfter > 0 && cfg.KillPE >= 0 && cfg.KillPE < f.n {
			killPE = cfg.KillPE
		}
		f.cnet = newChanNet(f.n, cfg.Latency, killPE, cfg.KillAfter)
		for pe := 0; pe < f.n; pe++ {
			f.startHost(pe, f.cnet.endpoint(pe))
		}
		ep := f.cnet.endpoint(f.n)
		f.ep, f.in = ep, ep.in
	}

	f.wg.Add(1)
	go f.dispatch()
	return f, nil
}

// dialTCP connects to every worker address, announces the fleet geometry
// with a fleet-level KInit, and starts a liveness pump per connection.
func (f *Fleet) dialTCP(ctx context.Context, cfg Config) error {
	d := &tcpEndpoint{self: f.n, in: newInboxTable(0), links: make([]tcpLink, f.n)}
	var dialer net.Dialer
	for i, addr := range cfg.Workers {
		conn, err := dialer.DialContext(ctx, "tcp", addr)
		if err != nil {
			d.Close()
			return fmt.Errorf("cluster: dialing worker %d at %s: %w", i, addr, err)
		}
		o := newOutbox(conn)
		d.links[i] = tcpLink{addr: addr, out: o}
		if err := o.send(fleetInitMsg(i, cfg.Workers)); err != nil {
			d.Close()
			return fmt.Errorf("cluster: init worker %d at %s: %w", i, addr, err)
		}
		go d.pumpWorker(i, 0, conn)
	}
	f.tcp, f.ep, f.in = d, d, d.in
	f.peers = append([]string(nil), cfg.Workers...)
	f.sparesLeft = append([]string(nil), cfg.Spares...)
	return nil
}

// fleetInitMsg is the fleet-level KInit a TCP worker receives once per
// driver session: identity and peer table only — programs and knobs arrive
// per job in KJobStart frames.
func fleetInitMsg(pe int, peers []string) *Msg {
	return &Msg{Kind: KInit, From: int32(len(peers)), Cfg: &MsgCfg{
		PE:     int32(pe),
		NumPEs: int32(len(peers)),
		Peers:  append([]string(nil), peers...),
	}}
}

// lookupProg resolves a job's program on the channel transport (shared
// memory: no serialization round-trip) or decodes the wire bytes on TCP.
func (f *Fleet) lookupProg(job int32, wire []byte) (*isa.Program, error) {
	if len(wire) > 0 {
		return isa.UnmarshalPods(wire)
	}
	f.mu.Lock()
	p := f.progs[job]
	f.mu.Unlock()
	if p == nil {
		return nil, fmt.Errorf("no program registered for job %d", job)
	}
	return p, nil
}

// dispatch drains the driver endpoint's fleet-level frames (every job
// frame goes straight to its job's inbox): host-death notices (KDown) and
// transport decode failures (KFail) are fanned out to every live job.
func (f *Fleet) dispatch() {
	defer f.wg.Done()
	for {
		m, err := f.in.box.recv(f.ctx)
		if err != nil {
			f.mu.Lock()
			for _, fj := range f.jobs {
				fj.box.close()
			}
			f.mu.Unlock()
			return
		}
		switch m.Kind {
		case KDown:
			f.noteDown(m)
		case KFail:
			f.mu.Lock()
			for _, fj := range f.jobs {
				c := *m
				fj.box.put(&c)
			}
			f.mu.Unlock()
		}
	}
}

// noteDown records a host death and tells every live job (Submit tells
// later ones). The copies carry Inc = MaxInt32: job-level incarnation
// fences must never swallow a death notice, whose authority is the
// transport, not any incarnation.
func (f *Fleet) noteDown(m *Msg) {
	pe := int(m.From)
	f.mu.Lock()
	defer f.mu.Unlock()
	if pe < 0 || pe >= f.n || m.Inc < f.hostInc[pe] {
		return // stale notice from an already-re-homed host
	}
	f.deadPending[pe] = true
	for _, fj := range f.jobs {
		fj.box.put(&Msg{Kind: KDown, From: m.From, Inc: math.MaxInt32})
	}
}

// jobStartMsg builds one PE's KJobStart: the job's config, recovery state,
// and (on TCP) the serialized program. incs must be a fresh slice per call
// — the receiving worker retains and mutates it.
func jobStartMsg(cfg *Config, prog []byte, epoch int32, incs []int32) *Msg {
	return &Msg{Kind: KJobStart, Epoch: epoch, Cfg: &MsgCfg{Job: *cfg, Incs: incs, Prog: prog}}
}

// allocJobIDLocked mints a job ID. IDs whose low 15 bits are zero are
// skipped: packed object IDs carry only job&0x7fff, and all-zero would be
// indistinguishable from pre-fleet (job-less) IDs in diagnostics.
func (f *Fleet) allocJobIDLocked() int32 {
	for {
		f.nextJob++
		if f.nextJob <= 0 {
			f.nextJob = 1
		}
		id := f.nextJob
		if id&jobMask == 0 {
			continue
		}
		if _, live := f.jobs[id]; live {
			continue
		}
		return id
	}
}

// Submit runs one program on the fleet and waits for its result. Safe for
// concurrent use; each call is an isolated job. cfg supplies the job's
// scheduling knobs, geometry, and budgets — transport fields (Workers,
// Spares, NumPEs, fault injection) come from the fleet.
func (f *Fleet) Submit(ctx context.Context, prog *isa.Program, cfg Config, args ...isa.Value) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	entry := prog.Entry()
	want := entry.NParams
	if entry.HasResult {
		want -= 2
	}
	if len(args) != want {
		return nil, fmt.Errorf("cluster: entry %q wants %d args, got %d", entry.Name, want, len(args))
	}
	if entry.HasResult {
		args = append(append([]isa.Value{}, args...), isa.SPRef(0), isa.Int(0))
	}

	// The job inherits the fleet's transport shape; everything else is per
	// job. Workers is snapshotted so recovery sees the *current* peer
	// table (a re-homed PE lives at its spare's address).
	f.mu.Lock()
	curPeers := append([]string(nil), f.peers...)
	f.mu.Unlock()
	cfg.NumPEs = f.n
	cfg.Workers = curPeers
	cfg.Spares = nil
	if err := cfg.fill(); err != nil {
		return nil, err
	}

	var progBytes []byte
	if f.tcp != nil {
		b, err := isa.MarshalPods(prog)
		if err != nil {
			return nil, fmt.Errorf("cluster: marshal program: %w", err)
		}
		progBytes = b
	}

	// Admission: a full fleet rejects rather than queues — callers see
	// the rejection immediately and can back off or resubmit.
	maxJobs := f.cfg.MaxJobs
	if maxJobs <= 0 {
		maxJobs = DefaultMaxJobs
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, fmt.Errorf("cluster: fleet is closed")
	}
	if len(f.jobs) >= maxJobs {
		f.mu.Unlock()
		mJobsRejected.Add(1)
		return nil, fmt.Errorf("cluster: job rejected: %d jobs already running (Config.MaxJobs)", maxJobs)
	}
	id := f.allocJobIDLocked()
	fj := &fleetJob{box: f.in.open(id), cfg: cfg, prog: progBytes}
	f.jobs[id] = fj
	if f.tcp == nil {
		f.progs[id] = prog
	}
	// A host that died before this job existed is down for it too: the job
	// must not wait for a probe round to time out to learn of it.
	for pe, dead := range f.deadPending {
		if dead {
			fj.box.put(&Msg{Kind: KDown, From: int32(pe), Inc: math.MaxInt32})
		}
	}
	f.mu.Unlock()
	mJobsTotal.Add(1)
	mJobsActive.Add(1)
	defer func() {
		f.mu.Lock()
		delete(f.jobs, id)
		delete(f.progs, id)
		f.mu.Unlock()
		f.in.end(id)
		mJobsActive.Add(-1)
	}()

	jep := &jobEndpoint{job: id, out: f.ep, in: fj.box}
	var startErr error
	for pe := 0; pe < f.n; pe++ {
		// Fresh Msg and incs per PE: the receiver owns them.
		if err := jep.Send(pe, jobStartMsg(&cfg, progBytes, 0, nil)); err != nil {
			startErr = err
			break
		}
	}
	if startErr != nil && !cfg.Recover {
		f.endJobEverywhere(id)
		return nil, fmt.Errorf("cluster: starting job: %w", startErr)
	}
	// With recovery armed a failed start frame is just an early death:
	// the first probe round times out and respawnJob takes over.

	var respawn respawnFunc
	if cfg.Recover {
		respawn = func(pe int, epoch int32, incs []int32) ([]string, error) {
			return f.respawnJob(id, pe, epoch, incs)
		}
	}
	res, err := drive(ctx, jep, cfg, entry, args, respawn)
	f.endJobEverywhere(id)
	return res, err
}

// endJobEverywhere tells every host to tear the job's instance down.
func (f *Fleet) endJobEverywhere(id int32) {
	for pe := 0; pe < f.n; pe++ {
		_ = f.ep.Send(pe, &Msg{Kind: KJobEnd, Job: id})
	}
}

// respawnJob adapts a job's recovery to the shared fleet: the first job to
// respawn onto a dead PE re-homes the host (fresh mailbox on chan, spare
// address on TCP); every job then restarts its own worker instance there
// with its bumped incarnation vector.
func (f *Fleet) respawnJob(job int32, pe int, epoch int32, incs []int32) ([]string, error) {
	f.mu.Lock()
	fj := f.jobs[job]
	if fj == nil {
		f.mu.Unlock()
		return nil, fmt.Errorf("job %d is gone", job)
	}
	if pe < 0 || pe >= f.n {
		f.mu.Unlock()
		return nil, fmt.Errorf("respawn of unknown pe %d", pe)
	}
	if f.deadPending[pe] {
		gen := f.hostInc[pe] + 1
		f.hostInc[pe] = gen // fences the dead host's late notices first
		if err := f.rehomeLocked(pe, gen); err != nil {
			f.mu.Unlock()
			return nil, err
		}
		f.deadPending[pe] = false
	}
	var peers []string
	if f.tcp != nil {
		peers = append([]string(nil), f.peers...)
	}
	cfg := fj.cfg
	prog := fj.prog
	f.mu.Unlock()

	m := jobStartMsg(&cfg, prog, epoch, append([]int32(nil), incs...))
	m.Job = job
	if err := f.ep.Send(pe, m); err != nil {
		return nil, err
	}
	return peers, nil
}

// startHost runs PE pe's fleet host on the channel transport.
func (f *Fleet) startHost(pe int, ep *chanEndpoint) {
	h := newFleetHost(pe, f.n, ep, ep.in, f.lookupProg)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		h.serve(f.ctx)
	}()
}

// rehomeLocked replaces a dead PE's host: a fresh inbox table and host on
// the channel transport, or the next spare address on TCP (re-announced to
// the driver pump and, via the returned peer table, to survivors).
func (f *Fleet) rehomeLocked(pe int, gen int32) error {
	if f.cnet != nil {
		f.startHost(pe, f.cnet.replace(pe))
		return nil
	}
	if len(f.sparesLeft) == 0 {
		return fmt.Errorf("no spare worker addresses left (Config.Spares)")
	}
	addr := f.sparesLeft[0]
	var dialer net.Dialer
	conn, err := dialer.DialContext(f.ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("dialing spare %s: %w", addr, err)
	}
	f.sparesLeft = f.sparesLeft[1:]
	f.peers[pe] = addr
	o := newOutbox(conn)
	if err := o.send(fleetInitMsg(pe, f.peers)); err != nil {
		conn.Close()
		return fmt.Errorf("init spare %s: %w", addr, err)
	}
	f.tcp.repoint(pe, addr, o)
	go f.tcp.pumpWorker(pe, gen, conn)
	return nil
}

// Close shuts the fleet down: hosts stop (fleet-level KStop), the
// transport closes, and every goroutine is joined. Jobs still in flight
// fail with closed-endpoint errors. Idempotent.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	for pe := 0; pe < f.n; pe++ {
		_ = f.ep.Send(pe, &Msg{Kind: KStop})
	}
	f.cancel()
	err := f.ep.Close()
	f.wg.Wait()
	return err
}
