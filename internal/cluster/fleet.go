package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/isa"
	"repro/internal/istructure"
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

// fleetHost runs job lifecycle on one PE. Its endpoint's inbox table
// delivers every job frame straight to the job's worker, so the host sees
// only fleet-level frames, KJobStart (start a worker on the inbox the table
// opened) and KJobEnd (forget it: the table closed its inbox).
type fleetHost struct {
	pe, n int
	ep    Endpoint
	in    *inboxTable
	memo  progMemo // the programs decoded from KJobStart wire bytes

	jobs map[int32]*mailbox // inboxes of the workers this host started
	wg   sync.WaitGroup
}

func newFleetHost(pe, n int, ep Endpoint, in *inboxTable) *fleetHost {
	return &fleetHost{pe: pe, n: n, ep: ep, in: in, jobs: make(map[int32]*mailbox)}
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
		case KInit:
			// A TCP peer was re-homed onto a spare: the link to it redials
			// at its new address.
			if t, ok := h.ep.(*tcpEndpoint); ok {
				for pe, addr := range m.Cfg.Peers {
					if pe < h.n {
						t.repoint(pe, addr, nil)
					}
				}
			}
		case KStop:
			return
		case KFail:
			// A transport decode failure (minted by the pump, unattributable
			// to a job) is fanned out to every live job so none hangs on a
			// half-dead wire.
			for _, box := range h.jobs {
				box.put(newMsg(*m))
			}
		}
	}
}

// startJob instantiates a worker for the job described by m. The driver
// never starts a job twice, but a second start for a running job retires
// the first instance, so that it cannot outlive its inbox.
func (h *fleetHost) startJob(ctx context.Context, m *Msg) {
	job, c := m.Job, m.Cfg
	if old := h.jobs[job]; old != nil {
		old.close()
		delete(h.jobs, job)
	}
	var err error
	prog := c.prog // shared on the channel transport, decoded on TCP
	if prog == nil {
		prog, err = h.memo.get(c.Prog)
	}
	if err != nil {
		c.inbox.close()
		_ = h.ep.Send(h.n, newMsg(Msg{Kind: KFail, Job: job, Name: fmt.Sprintf("pe %d: job start: %v", h.pe, err)}))
		return
	}

	// The job's knobs are the driver's; the PE count is this fleet's (it
	// does not cross a wire).
	cfg := c.Job
	cfg.NumPEs = h.n
	w := newWorker(h.pe, &cfg, prog, &jobEndpoint{job: job, out: h.ep, in: c.inbox})
	w.job = job
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
	cfg   Config
	n     int
	ep    Endpoint
	probe time.Duration // its drivers' probe cadence: probeInterval, or a test's set before Submit

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu          sync.Mutex
	jobs        map[int32]*mailbox // every live job's driver inbox
	nextJob     int32
	closed      bool
	hostGen     []int32  // per-PE host generation (re-homing fence)
	deadPending []bool   // host died; not yet re-homed
	peers       []string // current TCP worker addresses
	sparesLeft  []string

	in   *inboxTable // the driver endpoint's: every job's inbox opens here
	cnet *chanTransport
	tcp  *tcpEndpoint
}

// OpenFleet brings a persistent fleet up. Geometry-free: per-job knobs
// (page size, stealing, budgets, ...) are chosen at Submit time; the fleet
// config fixes the transport, PE count and the concurrent-job cap.
func OpenFleet(ctx context.Context, cfg Config) (*Fleet, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:   cfg,
		n:     cfg.NumPEs,
		probe: probeInterval,
		jobs:  make(map[int32]*mailbox),
	}
	f.ctx, f.cancel = context.WithCancel(ctx)
	f.hostGen = make([]int32, f.n)
	f.deadPending = make([]bool, f.n)

	if len(cfg.Workers) > 0 {
		if err := f.dialTCP(ctx, cfg); err != nil {
			f.cancel()
			return nil, err
		}
	} else {
		f.cnet = newChanNet(f.n, cfg.Latency)
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
		go d.pumpLink(i, 0, conn)
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
	return newMsg(Msg{Kind: KInit, From: int32(len(peers)), Cfg: &MsgCfg{
		PE:     int32(pe),
		NumPEs: int32(len(peers)),
		Peers:  append([]string(nil), peers...),
	}})
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
			for _, box := range f.jobs {
				box.close()
			}
			f.mu.Unlock()
			return
		}
		switch m.Kind {
		case KDown:
			f.mu.Lock()
			f.noteDownLocked(int(m.From), m.Gen)
			f.mu.Unlock()
		case KFail:
			f.mu.Lock()
			for _, box := range f.jobs {
				box.put(newMsg(*m))
			}
			f.mu.Unlock()
		}
	}
}

// noteDownLocked records the death of PE pe's host generation gen and
// tells every live job (a job started later hears of it at its start). A
// notice for a generation already re-homed, or a host already known dead,
// changes nothing.
func (f *Fleet) noteDownLocked(pe int, gen int32) {
	if pe < 0 || pe >= f.n || gen < f.hostGen[pe] || f.deadPending[pe] {
		return
	}
	f.deadPending[pe] = true
	for _, box := range f.jobs {
		box.put(newMsg(Msg{Kind: KDown, From: int32(pe)}))
	}
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
		if id&istructure.JobMask == 0 {
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
// scheduling knobs, geometry, and budgets (capped by the fleet's) —
// transport fields (Workers, Spares, NumPEs) come from the fleet.
func (f *Fleet) Submit(ctx context.Context, prog *isa.Program, cfg Config, args ...isa.Value) (*Result, error) {
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	args, err := prog.EntryArgs(args)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}

	// The job inherits the fleet's transport shape; everything else is per
	// job, with budgets no looser than the fleet's.
	cfg.NumPEs = f.n
	cfg.Workers, cfg.Spares = nil, nil
	cfg.MaxInstrs = clampBudget(cfg.MaxInstrs, f.cfg.MaxInstrs)
	cfg.MaxElems = clampBudget(cfg.MaxElems, f.cfg.MaxElems)
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
	id, box, gens := f.openJobLocked()
	f.mu.Unlock()
	mJobsTotal.Add(1)
	mJobsActive.Add(1)
	defer mJobsActive.Add(-1)

	// Recovery re-runs the job. PODS programs are determinate, whatever
	// the schedule, so a run from the same program and arguments computes
	// the same results; a job that loses a worker therefore starts again,
	// on the re-homed hosts, under a fresh job ID in the same admission
	// slot. The ID is the fence: every late frame of the aborted run is
	// addressed to an ended job and dropped.
	for restarts := int64(0); ; restarts++ {
		res, err := f.run(ctx, id, box, &cfg, prog, progBytes, args)
		f.mu.Lock()
		f.closeJobLocked(id)
		var death *deathError
		if !errors.As(err, &death) {
			f.mu.Unlock()
			if res != nil {
				res.Stats.Recoveries = restarts
			}
			return res, err
		}
		// A PE the driver or a worker could not reach is dead, as if its
		// host had sent a KDown: the re-run must not start on it again.
		if pe := death.unreachable; pe >= 0 {
			f.noteDownLocked(pe, gens[pe])
		}
		switch {
		case restarts == maxRestarts:
			err = fmt.Errorf("cluster: job lost a worker on each of its %d runs, the last time: %w", maxRestarts+1, err)
		case f.closed:
			err = fmt.Errorf("cluster: fleet is closed")
		default:
			if err = f.rehomeDeadLocked(); err != nil {
				err = fmt.Errorf("%w; %w", death.err, err)
			}
		}
		if err != nil {
			f.mu.Unlock()
			return nil, err
		}
		id, box, gens = f.openJobLocked()
		f.mu.Unlock()
	}
}

// clampBudget resolves a job's budget against the fleet's cap: zero means
// unlimited on both sides, and the effective budget is the tighter of the
// two.
func clampBudget(job, fleet int64) int64 {
	if fleet > 0 && (job <= 0 || job > fleet) {
		return fleet
	}
	if job < 0 {
		return 0
	}
	return job
}

// maxRestarts bounds how often Submit re-runs a job that keeps losing
// workers.
const maxRestarts = 8

// openJobLocked admits one run of a job: a fresh job ID, the run's driver
// inbox, and the host generations the run starts on. A host already dead
// is down for the run too, which hears so at once instead of waiting out a
// probe round.
func (f *Fleet) openJobLocked() (id int32, box *mailbox, gens []int32) {
	id = f.allocJobIDLocked()
	box = f.in.open(id)
	f.jobs[id] = box
	for pe, dead := range f.deadPending {
		if dead {
			box.put(newMsg(Msg{Kind: KDown, From: int32(pe)}))
		}
	}
	return id, box, slices.Clone(f.hostGen)
}

// closeJobLocked forgets a run: its inbox ends, and every frame still
// addressed to it is dropped.
func (f *Fleet) closeJobLocked(id int32) {
	delete(f.jobs, id)
	f.in.end(id)
}

// run makes one run of a job: start its worker on every PE, drive it, and
// end it everywhere.
func (f *Fleet) run(ctx context.Context, id int32, box *mailbox, cfg *Config, prog *isa.Program, progBytes []byte, args []isa.Value) (*Result, error) {
	defer f.endJobEverywhere(id)
	jep := &jobEndpoint{job: id, out: f.ep, in: box}
	for pe := 0; pe < f.n; pe++ {
		// A fresh Msg per PE: the receiver owns it.
		if err := jep.Send(pe, jobStartMsg(cfg, prog, progBytes)); err != nil {
			return nil, &deathError{pe, fmt.Errorf("cluster: starting job: %w", err)}
		}
	}
	return drive(ctx, jep, *cfg, f.probe, prog.Entry(), args)
}

// jobStartMsg builds one PE's KJobStart: the job's config and its program,
// shared in memory (a channel host runs prog) and, on TCP, serialized.
func jobStartMsg(cfg *Config, prog *isa.Program, progBytes []byte) *Msg {
	return newMsg(Msg{Kind: KJobStart, Cfg: &MsgCfg{Job: *cfg, Prog: progBytes, prog: prog}})
}

// endJobEverywhere tells every host to tear the job's instance down.
func (f *Fleet) endJobEverywhere(id int32) {
	for pe := 0; pe < f.n; pe++ {
		_ = f.ep.Send(pe, newMsg(Msg{Kind: KJobEnd, Job: id}))
	}
}

// rehomeDeadLocked re-homes the host of every PE known dead.
func (f *Fleet) rehomeDeadLocked() error {
	for pe, dead := range f.deadPending {
		if !dead {
			continue
		}
		f.hostGen[pe]++ // fences the dead host's late notices first
		if err := f.rehomeLocked(pe, f.hostGen[pe]); err != nil {
			return fmt.Errorf("re-homing pe %d: %w", pe, err)
		}
		f.deadPending[pe] = false
	}
	return nil
}

// startHost runs PE pe's fleet host on the channel transport.
func (f *Fleet) startHost(pe int, ep *chanEndpoint) {
	h := newFleetHost(pe, f.n, ep, ep.in)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		h.serve(f.ctx)
	}()
}

// rehomeLocked replaces a dead PE's host: a fresh inbox table and host on
// the channel transport, or the next spare address on TCP, announced to
// the spare and to every other host in a fleet-level KInit.
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
	go f.tcp.pumpLink(pe, gen, conn)
	for i := 0; i < f.n; i++ {
		if i != pe {
			_ = f.ep.Send(i, fleetInitMsg(i, f.peers))
		}
	}
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
		_ = f.ep.Send(pe, newMsg(Msg{Kind: KStop}))
	}
	f.cancel()
	err := f.ep.Close()
	f.wg.Wait()
	return err
}
