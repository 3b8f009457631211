// Package cluster is a message-passing distributed-memory runtime for
// translated PODS programs: N PE workers, each owning its own shard of
// I-structure memory and its own run queue, communicate exclusively through
// a typed message protocol — token delivery, SPAWND broadcast, remote
// I-structure read with deferred-read queueing, page request/ship with
// invalidation-free single-assignment caching, and distributed termination
// detection — sent through an Endpoint and received from mailboxes. Two
// endpoints exist: an in-process channel transport (one goroutine + mailbox
// per PE, zero shared state) and a TCP transport (length-prefixed frames
// over net.Conn, so PEs can run as separate OS processes; see cmd/podsd).
//
// The runtime is faithful to the paper's iPSC/2 setting: no worker ever
// touches another worker's memory, and every remote array access costs a
// real message round-trip.
package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/isa"
)

// MsgKind discriminates protocol messages.
type MsgKind uint8

// Protocol message kinds. Data-plane kinds (spawn, token, alloc, readReq,
// page, write) are counted by the termination detector; control-plane kinds
// are not.
const (
	// KInit opens a driver session on a TCP worker: its PE index, the PE
	// count and the peer address list (Cfg.PE, NumPEs, Peers); programs and
	// knobs arrive per job. A later KInit in the session carries the peer
	// list again after the driver re-homed a PE onto a spare.
	// Channel-transport workers are configured in-process and never see it.
	KInit MsgKind = iota + 1

	// KSpawn instantiates template Tmpl with Args on the receiving PE
	// (the remote half of the L / distributing-LD operators).
	KSpawn

	// KToken delivers Val to slot Slot of SP instance SP. SP 0 is the
	// driver environment: such tokens become the program result.
	KToken

	// KAlloc is the distributing-allocate broadcast (§4.1): every PE (and
	// the driver) installs the array header described by Arr/Name/Dims/
	// Origin/Dist.
	KAlloc

	// KReadReq asks the owning PE for element Off of array Arr on behalf
	// of SP/Slot on PE ReqPE. If the element is present the owner ships
	// the whole page (KPage); if absent it queues the request and later
	// answers with a KToken when the write lands (§5.1 Array Manager).
	KReadReq

	// KPage ships a snapshot of page Page of array Arr (Vals/Set), plus
	// the originally requested element Off for SP/Slot delivery. Single
	// assignment makes the cache invalidation-free: present entries are
	// final, absent entries may only be filled by a later refetch.
	KPage

	// KWrite stores Val at element Off of array Arr on the owning PE.
	KWrite

	// KFail reports a fatal worker error (Name holds the message).
	KFail

	// KProbe is a termination-detection probe for round Round.
	KProbe

	// KAck answers a probe: cumulative worker-to-worker Sent/Recv message
	// counts, the Live SP count, and shard statistics (Ack).
	KAck

	// KDumpReq asks a worker for its owned segment of array Arr.
	KDumpReq

	// KDump returns a segment: values and presence bits starting at linear
	// offset Off.
	KDump

	// KStop shuts a worker down.
	KStop

	// KStealReq asks a peer for not-yet-started SP instances. Sent by an
	// idle worker (empty ready queue) to a victim chosen round-robin with
	// backoff. HotPages carries the thief's hot-page summary — the
	// (array, page) pairs local to it, hottest first — so the victim can
	// prefer granting SPs whose operand rows the thief already holds.
	KStealReq

	// KStealGrant answers a steal request with a batch of stolen SPs
	// (Batch): up to half of the victim's stealable backlog in one
	// message, locality-preferred (SPs whose operand rows lie on the
	// thief's HotPages first, oldest first within equal locality). Each
	// item ships the SP's home ID, template, operand frame, and cost tag;
	// the victim leaves one forwarding stub per item behind so tokens
	// addressed to the home IDs are relayed to the thief.
	KStealGrant

	// KStealNone answers a steal request when the victim has nothing to
	// give (unloaded, failed, or only in-flight SPs); the thief's backoff
	// grows.
	KStealNone

	// KCostReport flushes a worker's per-iteration instruction costs for
	// one (Range-Filtered loop, sweep) pair to the driver: Tmpl names the
	// loop template, Sweep the fan-out the costs belong to, and Iters/Costs
	// are parallel slices of iteration indices and instruction counts
	// accumulated since the worker's previous flush. Sent alongside each
	// probe ack, so the reports ride the termination-detection cadence and
	// stay off the four-counter sums (driver traffic is control-plane).
	KCostReport

	// KRebound installs new adaptive index bounds for loop template Tmpl on
	// every worker: Cuts[p] is the last iteration assigned to PE p (the
	// final PE's upper bound is implied +inf). Workers apply the cuts to
	// future SPAWND fan-outs of that loop by stamping explicit per-PE
	// bounds onto the spawn messages, so every copy of one sweep sees one
	// consistent partition no matter when the rebound arrived.
	KRebound

	// KDown reports a dead worker to the driver: From names it, Gen the
	// host generation that died. It is synthesized locally — by the channel
	// transport's fault injector and by the TCP driver's connection pumps —
	// and never crosses a wire, so a worker death is detected at
	// connection-loss speed instead of waiting out a probe-round deadline.
	KDown

	// KTraceReq asks a worker to flush its trace ring to the driver. Sent
	// after termination (the gather phase) or when a stalled probe round
	// needs diagnostics. Control-plane: trace traffic must never move the
	// four-counter sums, or tracing would perturb the runs it observes.
	KTraceReq

	// KTrace answers a trace request: TraceEvs is the worker's event ring
	// flattened oldest-first (five int64 words per event), TraceDrops the
	// count of events the ring's capacity bound discarded. Control-plane.
	KTrace

	// KJobStart creates a per-job worker instance on a fleet host: Job
	// names the job, and Cfg carries the job's Config (scheduling knobs and
	// budgets) and (on TCP) the serialized program. The receiving
	// endpoint's inbox table routes every later frame stamped with this Job
	// straight to that instance.
	KJobStart

	// KJobEnd tears a job down on a fleet host: the host stops the job's
	// worker instance, frees its shard, and drops any straggler frames
	// still addressed to the job. Control-plane.
	KJobEnd

	// KSubmit asks a job server (podsd -serve) to run a program: Prog is
	// the serialized .pods program, Args the main arguments, Name a label,
	// Seq a client-chosen correlation tag. The job's Config (knobs and
	// budget requests) rides the Cfg block.
	KSubmit

	// KResult answers a KSubmit once the job finished: Val is the program
	// result (echoing Seq). The server streams each array as a KDump frame
	// (Name/Dims/Vals/Set) before the KResult; errors arrive as KFail.
	KResult

	// KLost reports to the driver that a worker's send to peer ReqPE
	// failed (Name is the send error): that peer is dead.
	KLost
)

func (k MsgKind) String() string {
	if int(k) < len(kinds) && kinds[k].name != "" {
		return kinds[k].name
	}
	return fmt.Sprintf("msg(%d)", uint8(k))
}

// Msg is one protocol message: a flat union in which each kind uses the
// subset of fields its documentation names, and the wire carries exactly
// that subset (wireBlocks). The struct every message allocates — on the
// channel transport as much as on TCP — is the hot part, ≤ 256 bytes
// (TestMsgSize); the blocks only control-plane kinds use (probe answers,
// job configuration, variable-length lists) sit behind the three pointers
// at the end. A Msg (and everything it references) is owned by the
// receiver once sent and must not be mutated by the sender afterwards —
// the channel transport passes pointers.
type Msg struct {
	Kind MsgKind

	// Dist (alloc: the array is distributed) and RngOn (spawn: explicit
	// adaptive bounds follow) live beside Kind, and the int32 fields are
	// paired, so that the struct has no padding.
	Dist  bool
	RngOn bool

	From int32 // sending endpoint: worker PE, or N (the driver)

	// Job names the job a frame belongs to on a multi-program fleet
	// (stamped by the per-job endpoint wrappers; 0 is fleet-level
	// control).
	Job int32

	Round int32 // termination-detection round (probe, ack)

	// Gen is the host generation a KDown reports dead, which the fleet
	// checks against a re-homed PE's current one. In memory only: a KDown
	// never crosses a wire.
	Gen int32

	// Seq is the client correlation tag on KSubmit and the KDump, KResult
	// or KFail frames that answer it.
	Seq int64

	// SP routing (spawn, token, readReq, page).
	SP   int64
	Slot int32
	Tmpl int32
	Val  isa.Value
	Args []isa.Value

	// Array operations (alloc, readReq, page, write, dump).
	Arr    int64
	Off    int32
	Page   int32
	Vals   []isa.Value
	Set    []bool
	Name   string // alloc array name; fail error text; lost send error
	Dims   []int32
	Origin int32
	ReqPE  int32

	// Adaptive repartitioning (spawn, costReport). A migrating
	// SP's cost tag travels per StealItem in the grant batch.
	Sweep int64 // fan-out identity of a distributed spawn
	RngLo int64 // adaptive lower index bound for the receiving PE (spawn)
	RngHi int64 // adaptive upper index bound for the receiving PE (spawn)

	Ack   *AckStats // probe answer (ack)
	Cfg   *MsgCfg   // worker and job configuration (init, jobStart, submit)
	Lists *MsgLists // adapt lists, steal summaries and batch, trace ring
}

// AckStats is a worker's answer to a termination probe: its Live SP count
// and, in Counters, its cumulative worker-to-worker MsgsSent/MsgsRecv (the
// four-counter detector's inputs), and its shard and scheduler counters at
// the probe. The detector keeps the latest one per PE as is, so Stats and
// PEStats are sums and copies of its Counters.
type AckStats struct {
	Round  int32 // copied from the ack's Msg.Round by the detector
	Live   int64 // live SP instances
	QDepth int64 // ready-queue depth at the probe
	Counters
}

// MsgCfg is the configuration block. KInit uses PE, NumPEs and Peers (a
// TCP worker's identity and peer table); KJobStart and KSubmit carry the
// job's Config — only its wireKnobs cross a wire — and serialized program.
type MsgCfg struct {
	PE     int32
	NumPEs int32
	Job    Config
	Peers  []string
	Prog   []byte

	// inbox is the job inbox the receiving endpoint's table opened when
	// this KJobStart was delivered; it never crosses a wire.
	inbox *mailbox
}

// MsgLists holds the variable-length control-plane payloads.
type MsgLists struct {
	Iters []int64 // iteration indices of a cost flush (costReport)
	Costs []int64 // instruction counts parallel to Iters (costReport)
	Cuts  []int64 // per-PE last-iteration cut points (rebound)

	HotPages []int64     // thief's hot-page summary as (array, page) pairs (stealReq)
	Batch    []StealItem // granted SP instances, locality-preferred order (stealGrant)

	// TraceEvs is a flushed event ring (trace.Recorder.Flatten layout),
	// TraceDrops the count of events its capacity bound discarded (trace).
	TraceEvs   []int64
	TraceDrops int64
}

// StealItem is one SP instance migrating inside a KStealGrant batch: its
// home ID, template, operand frame, and the cost-attribution tag, so a
// migrated iteration keeps billing the iteration (on the loop that spawned
// it) that caused it. An absent frame slot is the zero Value.
type StealItem struct {
	SP       int64
	Tmpl     int32
	CostLoop int32 // -1 = untagged
	Sweep    int64
	CostIter int64
	Args     []isa.Value
}

// wireBlocks names the field groups a kind carries on the wire after the
// common header (Kind, From, Job). Both codec halves walk the groups in
// declaration order and branch on the kind they have already read, so the
// pair is symmetric by construction and a token frame is 30 bytes.
type wireBlocks uint16

const (
	wSeq   wireBlocks = 1 << iota // Seq
	wSP                           // SP, Slot
	wVal                          // Val
	wSpawn                        // Tmpl, Args
	wElem                         // Arr, Off
	wReq                          // ReqPE
	wPage                         // Page, Vals, Set
	wName                         // Name
	wDims                         // Dims, Origin, Dist
	wRound                        // Round
	wSweep                        // Sweep, RngOn, RngLo, RngHi
	wAck                          // Ack
	wCfg                          // Cfg
	wAdapt                        // Lists.Iters, Costs, Cuts
	wSteal                        // Lists.HotPages, Batch
	wTrace                        // Lists.TraceEvs, TraceDrops
)

// kinds is the name and frame layout of every kind. KDown has no layout:
// it is synthesized locally, and decodeMsg refuses one so that a peer
// cannot forge a death notice.
var kinds = [...]struct {
	name string
	w    wireBlocks
}{
	KInit:       {"init", wCfg},
	KSpawn:      {"spawn", wSpawn | wSweep},
	KToken:      {"token", wSP | wVal},
	KAlloc:      {"alloc", wElem | wName | wDims},
	KReadReq:    {"readReq", wSP | wElem | wReq},
	KPage:       {"page", wSP | wElem | wPage},
	KWrite:      {"write", wElem | wVal},
	KFail:       {"fail", wSeq | wName},
	KProbe:      {"probe", wRound},
	KAck:        {"ack", wRound | wAck},
	KDumpReq:    {"dumpReq", wElem},
	KDump:       {"dump", wSeq | wElem | wPage | wName | wDims},
	KStop:       {"stop", 0},
	KStealReq:   {"stealReq", wSteal},
	KStealGrant: {"stealGrant", wSteal},
	KStealNone:  {"stealNone", 0},
	KCostReport: {"costReport", wSpawn | wSweep | wAdapt},
	KRebound:    {"rebound", wSpawn | wAdapt},
	KDown:       {"down", 0},
	KTraceReq:   {"traceReq", 0},
	KTrace:      {"trace", wTrace},
	KJobStart:   {"jobStart", wCfg},
	KJobEnd:     {"jobEnd", 0},
	KSubmit:     {"submit", wSeq | wSpawn | wName | wCfg},
	KResult:     {"result", wSeq | wSP | wVal},
	KLost:       {"lost", wReq | wName},
}

// layout returns the kind's wire blocks; ok is false for a kind that never
// crosses a wire.
func (k MsgKind) layout() (w wireBlocks, ok bool) {
	if int(k) >= len(kinds) || kinds[k].name == "" || k == KDown {
		return 0, false
	}
	return kinds[k].w, true
}

// isData reports whether the kind is counted by termination detection.
// Of the steal traffic, exactly the grant is data: a KStealGrant in flight
// carries a live SP, so it must keep the four counters unequal (and the
// granting victim holds the SP in its live count until the moment it
// sends). KStealReq/KStealNone are scheduling control-plane like probes —
// counting them would let the idle workers' own polling hold off
// termination detection indefinitely.
func (k MsgKind) isData() bool {
	switch k {
	case KSpawn, KToken, KAlloc, KReadReq, KPage, KWrite, KStealGrant:
		return true
	}
	return false
}

// The wire encoding is field-ordered binary: fixed-width little-endian
// scalars, length-prefixed slices and strings, an isa.Value as its kind
// byte plus the one 8-byte payload the kind selects (F for floats, I
// otherwise). A block whose pointer is nil encodes as its zero value;
// decodeMsg always allocates the blocks a kind carries, so a handler may
// dereference them on any frame that came off a wire.

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendI32(b []byte, v int32) []byte  { return appendU32(b, uint32(v)) }
func appendI64(b []byte, v int64) []byte  { return binary.LittleEndian.AppendUint64(b, uint64(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendValues(b []byte, vs []isa.Value) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendValue(b, v)
	}
	return b
}

func appendValue(b []byte, v isa.Value) []byte {
	b = append(b, byte(v.Kind))
	if v.Kind == isa.KindFloat {
		return appendI64(b, int64(math.Float64bits(v.F)))
	}
	return appendI64(b, v.I)
}

func appendString(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendI32s(b []byte, vs []int32) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendI32(b, v)
	}
	return b
}

func appendI64s(b []byte, vs []int64) []byte {
	b = appendU32(b, uint32(len(vs)))
	for _, v := range vs {
		b = appendI64(b, v)
	}
	return b
}

// orZero lets the encoder write a block whose pointer is nil.
func orZero[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}

// encodeMsg appends the wire form of m to b.
func encodeMsg(b []byte, m *Msg) []byte {
	b = append(b, byte(m.Kind))
	b = appendI32(b, m.From)
	b = appendI32(b, m.Job)
	w, _ := m.Kind.layout()
	if w&wSeq != 0 {
		b = appendI64(b, m.Seq)
	}
	if w&wSP != 0 {
		b = appendI64(b, m.SP)
		b = appendI32(b, m.Slot)
	}
	if w&wVal != 0 {
		b = appendValue(b, m.Val)
	}
	if w&wSpawn != 0 {
		b = appendI32(b, m.Tmpl)
		b = appendValues(b, m.Args)
	}
	if w&wElem != 0 {
		b = appendI64(b, m.Arr)
		b = appendI32(b, m.Off)
	}
	if w&wReq != 0 {
		b = appendI32(b, m.ReqPE)
	}
	if w&wPage != 0 {
		b = appendI32(b, m.Page)
		b = appendValues(b, m.Vals)
		b = appendU32(b, uint32(len(m.Set)))
		for _, s := range m.Set {
			b = appendBool(b, s)
		}
	}
	if w&wName != 0 {
		b = appendString(b, m.Name)
	}
	if w&wDims != 0 {
		b = appendI32s(b, m.Dims)
		b = appendI32(b, m.Origin)
		b = appendBool(b, m.Dist)
	}
	if w&wRound != 0 {
		b = appendI32(b, m.Round)
	}
	if w&wSweep != 0 {
		b = appendI64(b, m.Sweep)
		b = appendBool(b, m.RngOn)
		b = appendI64(b, m.RngLo)
		b = appendI64(b, m.RngHi)
	}
	if w&wAck != 0 {
		a := orZero(m.Ack)
		b = appendI64(b, a.Live)
		b = appendI64(b, a.QDepth)
		for _, f := range counterFields {
			b = appendI64(b, *f.get(&a.Counters))
		}
	}
	if w&wCfg != 0 {
		c := orZero(m.Cfg)
		b = appendI32(b, c.PE)
		b = appendI32(b, c.NumPEs)
		ints, flags, budgets := c.Job.wireKnobs()
		for _, p := range ints {
			b = appendI32(b, int32(*p))
		}
		for _, p := range flags {
			b = appendBool(b, *p)
		}
		for _, p := range budgets {
			b = appendI64(b, *p)
		}
		b = appendU32(b, uint32(len(c.Peers)))
		for _, p := range c.Peers {
			b = appendString(b, p)
		}
		b = appendU32(b, uint32(len(c.Prog)))
		b = append(b, c.Prog...)
	}
	if w&(wAdapt|wSteal|wTrace) == 0 {
		return b
	}
	l := orZero(m.Lists)
	if w&wAdapt != 0 {
		b = appendI64s(b, l.Iters)
		b = appendI64s(b, l.Costs)
		b = appendI64s(b, l.Cuts)
	}
	if w&wSteal != 0 {
		b = appendI64s(b, l.HotPages)
		b = appendU32(b, uint32(len(l.Batch)))
		for i := range l.Batch {
			it := &l.Batch[i]
			b = appendI64(b, it.SP)
			b = appendI32(b, it.Tmpl)
			b = appendI32(b, it.CostLoop)
			b = appendI64(b, it.Sweep)
			b = appendI64(b, it.CostIter)
			b = appendValues(b, it.Args)
		}
	}
	if w&wTrace != 0 {
		b = appendI64s(b, l.TraceEvs)
		b = appendI64(b, l.TraceDrops)
	}
	return b
}

// reader decodes the wire layout with sticky error handling. Every value
// it returns is a copy: nothing a decoded Msg holds aliases b, so the
// transport may reuse its read buffer for the next frame.
type reader struct {
	b   []byte
	err error
}

// take consumes n bytes. After an error, and for a scalar the frame is
// too short for, it returns zeros, so the scalar readers need no check of
// their own.
func (r *reader) take(n int) []byte {
	if r.err == nil && len(r.b) < n {
		r.err = fmt.Errorf("cluster: truncated frame (want %d bytes, have %d)", n, len(r.b))
	}
	if r.err != nil {
		var zeros [valueSize]byte
		return zeros[:min(n, len(zeros))]
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() byte    { return r.take(1)[0] }
func (r *reader) bool() bool  { return r.u8() != 0 }
func (r *reader) u32() uint32 { return binary.LittleEndian.Uint32(r.take(4)) }
func (r *reader) i32() int32  { return int32(r.u32()) }
func (r *reader) i64() int64  { return int64(binary.LittleEndian.Uint64(r.take(8))) }

// valueSize is the wire size of one isa.Value.
const valueSize = 9

func decodeValue(b []byte) isa.Value {
	k, p := isa.Kind(b[0]), binary.LittleEndian.Uint64(b[1:])
	if k == isa.KindFloat {
		return isa.Value{Kind: k, F: math.Float64frombits(p)}
	}
	return isa.Value{Kind: k, I: int64(p)}
}

func (r *reader) value() isa.Value { return decodeValue(r.take(valueSize)) }

func (r *reader) values() []isa.Value {
	n := r.sliceLen(valueSize)
	if n == 0 {
		return nil
	}
	out, b := make([]isa.Value, n), r.take(n*valueSize) // sliceLen checked the bytes are there
	for i := range out {
		out[i] = decodeValue(b[i*valueSize:])
	}
	return out
}

func (r *reader) str() string {
	return string(r.take(r.sliceLen(1)))
}

func (r *reader) i32s() []int32 {
	n := r.sliceLen(4)
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = r.i32()
	}
	return out
}

func (r *reader) i64s() []int64 {
	n := r.sliceLen(8)
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = r.i64()
	}
	return out
}

// sliceLen validates a length prefix against the remaining bytes, so a
// corrupt frame cannot force an allocation larger than a small multiple
// of its own size.
func (r *reader) sliceLen(elemSize int) int {
	n := int(r.u32())
	if r.err == nil && n*elemSize > len(r.b) {
		r.err = fmt.Errorf("cluster: frame slice length %d exceeds payload", n)
		return 0
	}
	return n
}

// decodeMsg parses one wire-format message. It allocates the Msg, the
// blocks its kind carries and exactly-sized slices, and retains nothing
// of b.
func decodeMsg(b []byte) (*Msg, error) {
	r := reader{b: b}
	m := &Msg{}
	m.Kind = MsgKind(r.u8())
	m.From = r.i32()
	m.Job = r.i32()
	w, ok := m.Kind.layout()
	if !ok && r.err == nil {
		return nil, fmt.Errorf("cluster: frame of unknown kind %d", uint8(m.Kind))
	}
	if w&wSeq != 0 {
		m.Seq = r.i64()
	}
	if w&wSP != 0 {
		m.SP = r.i64()
		m.Slot = r.i32()
	}
	if w&wVal != 0 {
		m.Val = r.value()
	}
	if w&wSpawn != 0 {
		m.Tmpl = r.i32()
		m.Args = r.values()
	}
	if w&wElem != 0 {
		m.Arr = r.i64()
		m.Off = r.i32()
	}
	if w&wReq != 0 {
		m.ReqPE = r.i32()
	}
	if w&wPage != 0 {
		m.Page = r.i32()
		m.Vals = r.values()
		if n := r.sliceLen(1); n > 0 {
			m.Set = make([]bool, n)
			for i, s := range r.take(n) {
				m.Set[i] = s != 0
			}
		}
	}
	if w&wName != 0 {
		m.Name = r.str()
	}
	if w&wDims != 0 {
		m.Dims = r.i32s()
		m.Origin = r.i32()
		m.Dist = r.bool()
	}
	if w&wRound != 0 {
		m.Round = r.i32()
	}
	if w&wSweep != 0 {
		m.Sweep = r.i64()
		m.RngOn = r.bool()
		m.RngLo = r.i64()
		m.RngHi = r.i64()
	}
	if w&wAck != 0 {
		m.Ack = &AckStats{Live: r.i64(), QDepth: r.i64()}
		for _, f := range counterFields {
			*f.get(&m.Ack.Counters) = r.i64()
		}
	}
	if w&wCfg != 0 {
		c := &MsgCfg{PE: r.i32(), NumPEs: r.i32()}
		m.Cfg = c
		ints, flags, budgets := c.Job.wireKnobs()
		for _, p := range ints {
			*p = int(r.i32())
		}
		for _, p := range flags {
			*p = r.bool()
		}
		for _, p := range budgets {
			*p = r.i64()
		}
		if n := r.sliceLen(4); n > 0 {
			c.Peers = make([]string, n)
			for i := range c.Peers {
				c.Peers[i] = r.str()
			}
		}
		if n := r.sliceLen(1); n > 0 {
			c.Prog = append([]byte(nil), r.take(n)...)
		}
	}
	if w&(wAdapt|wSteal|wTrace) != 0 {
		m.Lists = &MsgLists{}
	}
	if w&wAdapt != 0 {
		m.Lists.Iters = r.i64s()
		m.Lists.Costs = r.i64s()
		m.Lists.Cuts = r.i64s()
	}
	if w&wSteal != 0 {
		m.Lists.HotPages = r.i64s()
		// Minimum wire size of one item: the five fixed scalars plus an
		// empty frame's length prefix.
		if n := r.sliceLen(36); n > 0 {
			m.Lists.Batch = make([]StealItem, n)
			for i := range m.Lists.Batch {
				it := &m.Lists.Batch[i]
				it.SP = r.i64()
				it.Tmpl = r.i32()
				it.CostLoop = r.i32()
				it.Sweep = r.i64()
				it.CostIter = r.i64()
				it.Args = r.values()
			}
		}
	}
	if w&wTrace != 0 {
		m.Lists.TraceEvs = r.i64s()
		m.Lists.TraceDrops = r.i64()
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("cluster: %d trailing bytes after %v frame", len(r.b), m.Kind)
	}
	return m, nil
}

// ID packing: SP instances and arrays are identified by 64-bit IDs
// allocated without coordination. The layout, high to low:
//
//	bits 48..62  job namespace (low 15 bits of the job ID; 0 = single-job)
//	bits 40..47  owning PE index + 1 (the driver environment keeps ID 0)
//	bits  0..39  per-PE sequence number
//
// The job bits give every concurrent job on a shared fleet its own ID
// namespace, so two jobs' SP and array IDs can never collide in any shared
// map even though frames are already routed per job.

const (
	jobShift = 48
	peShift  = 40
	jobMask  = 0x7fff

	// maxPEs is the largest PE count an ID can name: the PE field is the
	// byte between peShift and jobShift, and it stores pe+1.
	maxPEs = 1<<(jobShift-peShift) - 1
)

func packID(pe int, seq int64) int64 { return int64(pe+1)<<peShift | seq }

// packJobID mints an ID under a specific job namespace.
func packJobID(job int32, pe int, seq int64) int64 {
	return (int64(job)&jobMask)<<jobShift | packID(pe, seq)
}

// peOf recovers the owning PE from a packed ID; ID 0 (the driver
// environment) returns -1. The mask strips the job namespace bits.
func peOf(id int64) int { return int((id>>peShift)&maxPEs) - 1 }

// jobOf recovers the job namespace bits from a packed ID.
func jobOf(id int64) int32 { return int32(id>>jobShift) & jobMask }
