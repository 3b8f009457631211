package cluster

import (
	"fmt"

	"repro/internal/isa"
)

// Driver-side half of worker-failure recovery.
//
// The failure model is fail-stop: a worker PE dies (process killed,
// machine gone, fault injector fired) and never speaks under its old
// identity again — and if it does, the incarnation fence silences it. The
// driver learns of a death from a KDown notice (connection loss, fault
// injection) or from a probe-round deadline, and then:
//
//  1. bumps the counting epoch and the dead PE's incarnation,
//  2. respawns the PE — a fresh goroutine on the channel transport, a
//     redialed spare address on TCP,
//  3. announces KRecover to the survivors, who zero their termination
//     counters, fence the dead incarnation, and replay their share of the
//     lost state (logged remote writes, outstanding reads, steal grants),
//  4. re-sends every array header to the replacement and replays the dead
//     PE's root assignments from the fan-out log: the entry spawn (PE 0)
//     and every SPAWND copy it was ever assigned, stamped with the same
//     sweep IDs and adaptive bounds as the originals.
//
// Single assignment is the load-bearing property: re-execution regenerates
// exactly the values the first execution produced, so replayed writes are
// absorbed idempotently, refetched pages carry identical data, and the
// results are bit-for-bit what an unkilled run computes. What is *not*
// replayed: the dead PE's statistics (its counters restart at zero), its
// adapt cost observations (the coordinator restarts), and any in-flight
// frames between survivors — those were never lost.
type recovery struct {
	enabled bool
	n       int
	epoch   int32
	incs    []int32
	rsp     respawner
	peers   []string // current worker addresses (TCP); nil in-process
	log     []fanout

	recoveries int64
	replayed   int64
}

// fanout is one logged root assignment: a SPAWND fan-out (only == -1,
// every PE got a copy) or the entry spawn (only == 0). from is the
// spawning PE (-1 for the driver's entry spawn): when *it* dies, its
// fan-out frames may have died on the wire before reaching anyone, so the
// whole fan-out is re-broadcast, not just the dead PE's copy.
type fanout struct {
	tmpl  int32
	args  []isa.Value
	sweep int64
	cuts  []int64
	only  int
	from  int
}

// respawner brings up a replacement worker for a dead PE. The channel
// transport starts a goroutine on a fresh mailbox; the TCP transport dials
// a spare `podsd -worker` address and re-inits it.
type respawner interface {
	// respawn starts PE pe's replacement at incarnation inc, joining
	// counting epoch epoch with incarnation vector incs. It returns the
	// updated peer address list (nil for in-process transports).
	respawn(pe int, inc, epoch int32, incs []int32) ([]string, error)
}

// maxIncarnations caps respawns per PE slot — the ID encoding carries the
// incarnation in one byte.
const maxIncarnations = 255

func newRecovery(n int, enabled bool, rsp respawner) *recovery {
	return &recovery{enabled: enabled && rsp != nil, n: n, incs: make([]int32, n), rsp: rsp}
}

// fenced reports whether a driver-bound frame was sent by a dead
// incarnation of its worker and must be dropped whole.
func (r *recovery) fenced(m *Msg) bool {
	pe := int(m.From)
	return pe >= 0 && pe < r.n && m.Inc < r.incs[pe]
}

// logEntry records the entry spawn so a dead PE 0 can be replayed.
func (r *recovery) logEntry(tmpl int32, args []isa.Value) {
	r.log = append(r.log, fanout{tmpl: tmpl, args: append([]isa.Value(nil), args...), only: 0, from: -1})
}

// logFanout records one KSpawnLog fan-out report. The message is receiver-
// owned, so its slices can be retained directly.
func (r *recovery) logFanout(m *Msg) {
	r.log = append(r.log, fanout{tmpl: m.Tmpl, args: m.Args, sweep: m.Sweep, cuts: m.Lists.Cuts, only: -1, from: int(m.From)})
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
	if f.only >= 0 && f.only != pe {
		return false
	}
	if f.from < 0 {
		return deadSet[pe]
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
		peers, err := r.rsp.respawn(pe, r.incs[pe], r.epoch, append([]int32(nil), r.incs...))
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
			m := &Msg{Kind: KSpawn, Tmpl: f.tmpl, Sweep: f.sweep, Epoch: r.epoch,
				Args: append([]isa.Value(nil), f.args...)}
			if f.cuts != nil {
				m.RngOn = true
				m.RngLo, m.RngHi = cutBounds(f.cuts, pe, r.n)
			}
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
			any := false
			for i := base; i < end; i++ {
				if g.mask[i] {
					any = true
					break
				}
			}
			if !any {
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

// dropSweeps garbage-collects the driver's fan-out log: assignments whose
// sweep completed a checkpoint are covered by the snapshot and need never
// be replayed again. The entry spawn (sweep 0) is permanent.
func (r *recovery) dropSweeps(sweeps []int64) {
	if len(sweeps) == 0 {
		return
	}
	done := make(map[int64]bool, len(sweeps))
	for _, s := range sweeps {
		if s != 0 {
			done[s] = true
		}
	}
	kept := r.log[:0]
	for _, f := range r.log {
		if !done[f.sweep] {
			kept = append(kept, f)
		}
	}
	for i := len(kept); i < len(r.log); i++ {
		r.log[i] = fanout{}
	}
	r.log = kept
}
