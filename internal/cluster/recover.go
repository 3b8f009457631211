package cluster

import (
	"fmt"
	"slices"

	"repro/internal/cluster/trace"
	"repro/internal/isa"
	"repro/internal/istructure"
)

// The recovery layer (Config.Recover): the cluster survives the fail-stop
// death of a worker PE. A dead PE never speaks under its old identity
// again — and if it does, the incarnation fence silences it. The driver
// learns of a death from a KDown notice (connection loss, fault injection)
// or from a probe-round deadline, and then:
//
//  1. bumps the counting epoch and the dead PE's incarnation,
//  2. respawns the PE — a fresh goroutine on the channel transport, a
//     redialed spare address on TCP,
//  3. announces KRecover to the survivors, who zero their termination
//     counters, fence the dead incarnation, and replay their share of the
//     lost state (logged remote writes, outstanding reads, their own
//     fan-outs),
//  4. re-sends every array header to the replacement, replays the root
//     assignments no worker can (the entry spawn and the fan-outs of a dead
//     spawner), and restores the replacement's owned segments from the last
//     checkpoint's snapshot (ckpt.go).
//
// Single assignment is the load-bearing property: re-execution regenerates
// exactly the values the first execution produced, so replayed writes are
// absorbed idempotently, refetched pages carry identical data, and the
// results are bit-for-bit what an unkilled run computes. What is *not*
// replayed: the dead PE's statistics (its counters restart at zero), its
// adapt cost observations (the coordinator restarts), and any in-flight
// frames between survivors — those were never lost.
//
// Config rejects Recover with Steal, so every SP lives on the PE that
// spawned it and the fan-out logs name every assignment a dead PE held.
//
// The core calls the worker half on every frame it receives (admit), when
// a token finds no live SP (staleMsgs), on a remote read, write, alloc or
// fan-out (the logs), on a failed peer send (deadSends) and for the
// recovery and checkpoint kinds (recoverMsg).

// recoverState is a worker's half of recovery and of the checkpoints that
// bound its logs, nil when Config.Recover is off.
type recoverState struct {
	incs      []int32 // known incarnation of every PE, updated by KRecover
	minEpoch  int32   // epoch this incarnation was born into (birth fence)
	recovered bool    // some recovery has happened: tolerate duplicate-execution tokens
	early     []*Msg  // peer frames of an epoch whose KRecover has not arrived yet
	staleMsgs int64   // frames and tokens dropped by incarnation fencing
	deadSends int64   // peer sends dropped on transport failure (replay covers them)
	replayed  int64   // SPs this worker re-sent for replacements

	// The replay logs: this worker's share of a dead peer's replayable
	// state. writeLog holds the remote writes it sent each PE, outReads its
	// in-flight remote reads (re-issued when the owner is respawned with an
	// empty shard), allocLog the arrays it allocated (broadcasts replayed)
	// and fanoutLog the SPAWND fan-outs it performed. arrays lists every
	// installed array ID, the iteration order of checkpoint dumps.
	writeLog  map[int][]writeRec
	outReads  map[outReadKey]outRead
	allocLog  []*istructure.Header
	fanoutLog []fanout
	arrays    []int64

	// Epoch flushing. A frame sent in an older epoch is invisible to the
	// new epoch's counters on both ends, so the sums alone cannot prove it
	// has landed. Each worker therefore sends a KFlush marker to every peer
	// when it adopts a new epoch (after repointing — the marker trails
	// every pre-epoch frame on each FIFO stream), and reports Flushed in
	// its acks once it holds markers from all peers: only then can no
	// uncounted frame still be in flight toward it. flushFrom tracks the
	// current epoch's markers.
	flushFrom []bool
	flushed   int

	ckpt ckptState // the checkpoint in flight (ckpt.go)
}

// writeRec is one logged remote write (replayed to a respawned owner).
type writeRec struct {
	arr int64
	off int32
	val isa.Value
}

// outReadKey identifies one in-flight remote read by its delivery target.
type outReadKey struct {
	sp   int64
	slot int32
}

// outRead is the request half of an in-flight remote read, kept so it can
// be re-issued against a respawned owner whose deferred-read queues died
// with its shard.
type outRead struct {
	arr   int64
	off   int32
	owner int
}

// fanout is one logged root assignment, the one record both halves keep: a
// SPAWND fan-out PE from performed (every PE got a copy), or the driver's
// entry spawn to PE 0 (from -1). cuts aliases the cut vector stamped at
// fan-out time (replaced wholesale by rebinds, never mutated), so a
// replayed copy carries bit-identical bounds.
type fanout struct {
	tmpl  int32
	args  []isa.Value
	sweep int64
	cuts  []int64
	from  int
}

// spawnMsg builds PE pe's KSpawn of the fan-out, stamped with the sweep and,
// under a rebound, pe's bounds. Every call returns a fresh message with its
// own arguments: a sent Msg is receiver-owned.
func (f *fanout) spawnMsg(pe, n int) *Msg {
	m := &Msg{Kind: KSpawn, Tmpl: f.tmpl, Sweep: f.sweep, Args: append([]isa.Value(nil), f.args...)}
	if f.cuts != nil {
		m.RngOn = true
		m.RngLo, m.RngHi = cutBounds(f.cuts, pe, n)
	}
	return m
}

// dropSweeps garbage-collects a fan-out log in place: assignments whose
// sweep completed a checkpoint are covered by the snapshot and need never
// be replayed again. The entry spawn (sweep 0) is permanent.
func dropSweeps(log []fanout, sweeps []int64) []fanout {
	if len(sweeps) == 0 {
		return log
	}
	done := make(map[int64]bool, len(sweeps))
	for _, s := range sweeps {
		if s != 0 {
			done[s] = true
		}
	}
	kept := log[:0]
	for _, f := range log {
		if !done[f.sweep] {
			kept = append(kept, f)
		}
	}
	clear(log[len(kept):])
	return kept
}

// enableRecovery arms the recovery layer: incarnation fencing, epoch-reset
// termination counting, write logging, outstanding-read tracking,
// and idempotent absorption of replayed writes. inc is this worker's own
// incarnation (>0 for a replacement), epoch the counting epoch it joins,
// incs the known incarnation of every PE.
func (w *worker) enableRecovery(inc, epoch int32, incs []int32) {
	if incs == nil {
		incs = make([]int32, w.n)
	}
	w.inc, w.epoch = inc, epoch
	w.recover = &recoverState{
		incs:      incs,
		minEpoch:  epoch,
		recovered: inc > 0 || epoch > 0,
		writeLog:  make(map[int][]writeRec),
		outReads:  make(map[outReadKey]outRead),
		flushFrom: make([]bool, w.n),
	}
	w.shard.Idempotent = true
	if epoch > 0 {
		// A replacement joins mid-run: its streams carry no pre-epoch
		// frames, so its markers can go out immediately.
		w.toPeers(KFlush, 0)
	}
}

// admit applies the recovery fences to an incoming frame and reports
// whether it may be processed.
func (w *worker) admit(m *Msg) bool {
	r, from := w.recover, int(m.From)
	// Incarnation fence: a frame from a dead incarnation of its sender is
	// dropped whole, whatever its kind. Every effect the old incarnation
	// produced is regenerated by the replay protocol, so processing the
	// stale frame could only duplicate or corrupt — and a zombie (a worker
	// presumed dead that is still limping) is silenced the same way.
	if from >= 0 && from < w.n && m.Inc < r.incs[from] {
		r.staleMsgs++
		return false
	}
	// Birth-epoch fence: a replacement joins at its recovery's new epoch,
	// and any peer frame stamped with an older one was in flight toward
	// its dead predecessor (on a fleet, the re-homed PE's fresh inbox table
	// holds and delivers traffic a severed mailbox used to drop). The
	// predecessor's requests died with it and everything durable is
	// replayed under the new epoch, so a pre-birth frame can only
	// duplicate or corrupt. Driver frames are exempt: the driver's stream
	// is repointed at respawn, so nothing pre-birth survives on it.
	if from != w.driverID() && m.Epoch < r.minEpoch {
		r.staleMsgs++
		return false
	}
	// A frame from a newer counting epoch proves a recovery happened; the
	// epoch is adopted before counting so the four-counter sums only ever
	// mix messages of one epoch. A peer's frame can outrun the KRecover on
	// the driver stream, though, and only the KRecover says which PEs died
	// and where their replacements live: adopting the epoch without it
	// would count this worker's sends to a dead peer's old connection in
	// the new epoch, where nobody will ever receive them and the sums could
	// never balance again. Such a frame waits for the KRecover instead.
	if m.Epoch > w.epoch {
		if from != w.driverID() {
			r.early = append(r.early, m)
			return false
		}
		w.bumpEpoch(m.Epoch)
	}
	return true
}

// recoverMsg handles the recovery and checkpoint kinds. Every PE of a job
// shares one Config, so a worker without the layer never legitimately
// sees one.
func (w *worker) recoverMsg(m *Msg) {
	r := w.recover
	if r == nil {
		w.unexpected(m)
		return
	}
	switch m.Kind {
	case KRecover:
		w.applyRecover(m)
	case KFlush:
		// An epoch marker from a peer: everything it sent in older epochs
		// has arrived (same FIFO stream). Markers are epoch-scoped.
		if f := int(m.From); m.Epoch == w.epoch && f >= 0 && f < w.n && !r.flushFrom[f] {
			r.flushFrom[f] = true
			r.flushed++
		}
	case KCkpt:
		w.startCkpt(m)
	case KCkptMark:
		w.handleCkptMark(m)
	case KCkptOK:
		w.finishCkpt(m)
	}
}

// bumpEpoch adopts a newer counting epoch: zero the four-counter halves
// and invalidate the previous epoch's flush markers. The worker's own
// markers go out once the transport is repointed (KRecover), or
// immediately for a freshly-joined replacement. An in-flight checkpoint
// dies with the old epoch: the driver aborts it on its side (the proposed
// sweeps return to pending) and a stale mark or OK must not resurrect it
// here. Aborted checkpoint IDs are never reused, so clearing the mark
// table cannot lose marks of a live one.
func (w *worker) bumpEpoch(epoch int32) {
	r := w.recover
	w.epoch = epoch
	w.sent, w.recv = 0, 0
	r.recovered = true
	w.rec(trace.EvEpoch, int64(epoch), 0)
	clear(r.flushFrom)
	r.flushed = 0
	r.ckpt = ckptState{}
}

// toPeers sends every other worker a frame of kind k carrying seq.
func (w *worker) toPeers(k MsgKind, seq int64) {
	for pe := 0; pe < w.n; pe++ {
		if pe != w.pe {
			w.send(pe, &Msg{Kind: k, Seq: seq})
		}
	}
}

// epochFlushed reports whether this worker has proof that no frame from an
// older counting epoch can still be in flight toward it. Epochs move only
// under recovery.
func (w *worker) epochFlushed() bool {
	return w.epoch == 0 || w.recover.flushed == w.n-1
}

// logFanout records a fan-out before it is performed: locally — the
// spawner is the one authority on what each PE was assigned, and replays a
// respawned peer's copy itself — and with the driver, so that if this
// worker dies mid-broadcast the driver can replay every PE's assignment,
// including copies whose spawn frames never left this machine.
func (w *worker) logFanout(f fanout) {
	w.recover.fanoutLog = append(w.recover.fanoutLog, f)
	w.send(w.driverID(), &Msg{Kind: KSpawnLog, Tmpl: f.tmpl, Args: append([]isa.Value(nil), f.args...),
		Sweep: f.sweep, Lists: &MsgLists{Cuts: append([]int64(nil), f.cuts...)}})
}

// applyRecover handles a KRecover announcement on a surviving worker:
// adopt the new counting epoch, fence the dead incarnations, repoint the
// transport at the replacement addresses, and replay this worker's share
// of the lost state toward each respawned PE.
func (w *worker) applyRecover(m *Msg) {
	r := w.recover
	if m.Epoch > w.epoch {
		w.bumpEpoch(m.Epoch)
	}
	r.recovered = true
	var dead []int
	for pe, inc := range m.Cfg.Incs {
		if pe < len(r.incs) && pe != w.pe && inc > r.incs[pe] {
			r.incs[pe] = inc
			dead = append(dead, pe)
		}
	}
	if len(m.Cfg.Peers) > 0 {
		w.ep.repoint(m.Cfg.Peers)
	}
	for _, k := range dead {
		w.replayFor(k)
	}
	// Markers last: the transport now points at the replacements, and on
	// every stream the marker trails all of this worker's older-epoch
	// frames (and the replays above, which is fine — they are counted in
	// the current epoch).
	w.toPeers(KFlush, 0)
	early := r.early
	r.early = nil
	for _, em := range early {
		w.handle(em)
	}
}

// replayFor re-creates this worker's share of a respawned PE k's lost
// state. Single assignment is what makes each piece replayable without
// coordination: re-sent writes are absorbed idempotently, re-issued reads
// fetch immutable data, and re-spawned SPs regenerate exactly the values
// their first execution produced.
func (w *worker) replayFor(k int) {
	r := w.recover
	// Headers this worker allocated: the original broadcast to k may have
	// died with the old incarnation (or been dropped while its address was
	// dark), and nothing re-executes a completed ALLOC — so the broadcast
	// itself is replayed, and duplicate installs are absorbed.
	for _, h := range r.allocLog {
		w.send(k, allocMsg(h))
	}
	// The dead shard's owned segments lost every remote write this worker
	// ever sent it; play the log back so the replacement's store converges
	// with what the survivors have already read.
	for _, wr := range r.writeLog[k] {
		w.send(k, &Msg{Kind: KWrite, Arr: wr.arr, Off: wr.off, Val: wr.val})
	}
	// Every fan-out this worker performed is re-sent: k's copy of each one
	// died with its shard (or on the wire), and re-execution regenerates
	// exactly the writes the first execution produced, absorbed
	// idempotently where they overlap surviving state.
	for i := range r.fanoutLog {
		w.send(k, r.fanoutLog[i].spawnMsg(k, w.n))
		r.replayed++
	}
	// In-flight reads owned by k — requested, queued as deferred reads in
	// the dead shard, or answered by a page that died on the wire — are
	// re-issued against the replacement; the blocked SPs wake when the
	// replayed writes land.
	for key, rd := range r.outReads {
		if rd.owner == k {
			w.send(k, &Msg{Kind: KReadReq, Arr: rd.arr, Off: rd.off,
				ReqPE: int32(w.pe), SP: key.sp, Slot: key.slot})
		}
	}
}

// recovery is the driver's half: the incarnation vector and counting epoch
// it announces, and the log of root assignments only it can replay.
type recovery struct {
	enabled bool
	n       int
	epoch   int32
	incs    []int32
	respawn respawnFunc
	peers   []string // current worker addresses (TCP); nil in-process
	log     []fanout

	recoveries int64
	replayed   int64
}

// respawnFunc brings up a replacement for dead PE pe at the incarnation
// vector incs, joining counting epoch epoch, and returns the updated peer
// address list (nil for in-process transports): on a fleet, Fleet.respawnJob
// bound to the job.
type respawnFunc func(pe int, epoch int32, incs []int32) ([]string, error)

// maxIncarnations caps respawns per PE slot — the ID encoding carries the
// incarnation in one byte.
const maxIncarnations = 255

// fenced reports whether a driver-bound frame was sent by a dead
// incarnation of its worker and must be dropped whole.
func (r *recovery) fenced(m *Msg) bool {
	pe := int(m.From)
	return pe >= 0 && pe < r.n && m.Inc < r.incs[pe]
}

// logFanout records one KSpawnLog fan-out report. The message is receiver-
// owned, so its slices can be retained directly.
func (r *recovery) logFanout(m *Msg) {
	r.log = append(r.log, fanout{tmpl: m.Tmpl, args: m.Args, sweep: m.Sweep, cuts: m.Lists.Cuts, from: int(m.From)})
}

// replayTo reports whether this assignment must be re-sent to PE pe when
// the PEs in deadSet were lost. The driver is only the authority for
// assignments whose *spawner* cannot speak for itself: the entry spawn
// (the driver made it) when its PE died, and every fan-out a dead PE
// performed — its deliveries to everyone are suspect, and a duplicate is
// absorbed by idempotent re-execution while a missing copy deadlocks the
// program. Fan-outs whose spawner survives are replayed by the spawner
// (its local log cannot be lost to a wire race).
func (f *fanout) replayTo(pe int, deadSet map[int]bool) bool {
	if f.from < 0 {
		return pe == 0 && deadSet[0]
	}
	return deadSet[f.from]
}

// perform executes one recovery event for the given dead PEs: respawn,
// announce, replay. On return the cluster is whole again and the probe
// loop can resume at the new epoch.
func (r *recovery) perform(ep Endpoint, dead []int, res *Result) error {
	r.epoch++
	deadSet := make(map[int]bool, len(dead))
	var uniq []int
	for _, pe := range dead {
		if pe < 0 || pe >= r.n || deadSet[pe] {
			continue
		}
		if r.incs[pe] >= maxIncarnations {
			return fmt.Errorf("cluster: pe %d exceeded %d incarnations", pe, maxIncarnations)
		}
		deadSet[pe] = true
		uniq = append(uniq, pe)
		r.incs[pe]++
	}
	if len(uniq) == 0 {
		return fmt.Errorf("cluster: recovery requested with no dead PEs")
	}
	for _, pe := range uniq {
		peers, err := r.respawn(pe, r.epoch, append([]int32(nil), r.incs...))
		if err != nil {
			return fmt.Errorf("cluster: respawning pe %d: %w", pe, err)
		}
		if peers != nil {
			r.peers = peers
		}
	}
	// Announce to the survivors. Per-receiver FIFO guarantees each
	// survivor fences the dead incarnation before it can see any frame the
	// driver sends afterwards on the same stream.
	for pe := 0; pe < r.n; pe++ {
		if deadSet[pe] {
			continue
		}
		m := &Msg{Kind: KRecover, Epoch: r.epoch, Cfg: &MsgCfg{
			Incs:  append([]int32(nil), r.incs...),
			Peers: append([]string(nil), r.peers...)}}
		if err := ep.Send(pe, m); err != nil {
			return err
		}
	}
	// Rebuild: every PE gets every known array header (duplicates are
	// absorbed by the idempotent install — a header broadcast can have
	// died on the wire with its sender), then each PE's share of the
	// replayable assignments in their original order, stamped exactly as
	// the first execution was: a replacement gets everything it was ever
	// assigned; survivors get the fan-outs a dead PE performed, whose
	// frames may never have arrived.
	for pe := 0; pe < r.n; pe++ {
		for _, g := range res.arrays {
			m := allocMsg(g.h)
			m.Epoch = r.epoch
			if err := ep.Send(pe, m); err != nil {
				return err
			}
		}
		for i := range r.log {
			f := &r.log[i]
			if !f.replayTo(pe, deadSet) {
				continue
			}
			m := f.spawnMsg(pe, r.n)
			m.Epoch = r.epoch
			if err := ep.Send(pe, m); err != nil {
				return err
			}
			r.replayed++
		}
		// Restore the replacement's owned segments from the driver's
		// checkpoint snapshot. This backfills the writes whose logs were
		// GC'd at the last completed checkpoint: survivors replay only
		// their post-checkpoint write-log suffixes, and GC'd sweeps are
		// not re-spawned at all. With no checkpoint completed the
		// snapshot is empty and no frames go out. Headers were re-sent
		// above on this same stream, so the restore always finds them.
		if deadSet[pe] {
			if err := r.restoreTo(ep, pe, res); err != nil {
				return err
			}
		}
	}
	r.recoveries++
	return nil
}

// restoreChunk bounds one KRestore frame's element span.
const restoreChunk = 1 << 16

// restoreTo ships the checkpoint snapshot of pe's owned segments to its
// replacement as KRestore frames (KDump-shaped; applied as idempotent
// owner writes). Chunks with no present elements are skipped.
func (r *recovery) restoreTo(ep Endpoint, pe int, res *Result) error {
	for id, g := range res.arrays {
		lo, hi := g.h.SegmentElems(pe)
		for base := lo; base < hi; base += restoreChunk {
			end := min(base+restoreChunk, hi)
			if !slices.Contains(g.mask[base:end], true) {
				continue
			}
			m := &Msg{Kind: KRestore, Arr: id, Off: int32(base), Epoch: r.epoch,
				Vals: append([]isa.Value(nil), g.raw[base:end]...),
				Set:  append([]bool(nil), g.mask[base:end]...)}
			if err := ep.Send(pe, m); err != nil {
				return err
			}
		}
	}
	return nil
}
