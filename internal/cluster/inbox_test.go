package cluster

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/isa"
)

// Tests for job-frame routing: every transport delivers a job frame
// straight into the addressed job's inbox through the receiving
// endpoint's inboxTable, and the lifecycle frames (KJobStart, KJobEnd)
// change that routing in stream order.

// inboxRig is PE 0 of a two-PE fleet under test, hosted on one transport,
// with the test playing both the driver (endpoint 2) and peer PE 1.
type inboxRig struct {
	t     *testing.T
	send  func(from int, m *Msg) // to PE 0, in order per sender
	drv   *inboxTable            // where PE 0's driver-bound frames land
	boxes map[int32]*mailbox
	wire  []byte
}

const rigDriver, rigPeer = 2, 1

// newChanRig hosts PE 0 on the channel transport.
func newChanRig(t *testing.T) *inboxRig {
	r := &inboxRig{t: t, boxes: make(map[int32]*mailbox)}
	_, prog := compileKernel(t, "matmul")
	r.wire = rigWire(t, prog)
	cn := newChanNet(2, 0)
	r.drv = cn.ins[2]
	ep := cn.endpoint(0)
	h := newFleetHost(0, 2, ep, ep.in)
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.serve(context.Background())
	}()
	t.Cleanup(func() {
		r.send(rigDriver, &Msg{Kind: KStop})
		<-done
	})
	r.send = func(from int, m *Msg) {
		if err := cn.endpoint(from).Send(0, m); err != nil {
			t.Error(err)
		}
	}
	return r
}

// newTCPRig hosts PE 0 on a loopback ServeWorker; the driver and the peer
// are raw connections to it. Peer PE 1's address is never dialed: PE 0
// only answers the driver.
func newTCPRig(t *testing.T) *inboxRig {
	r := &inboxRig{t: t, boxes: make(map[int32]*mailbox), drv: newInboxTable(0)}
	_, prog := compileKernel(t, "matmul")
	r.wire = rigWire(t, prog)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	t.Cleanup(wg.Wait)
	t.Cleanup(cancel)
	addrs, join := startTCPWorkers(t, ctx, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		join()
	}()
	dial := func() *outbox {
		conn, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return newOutbox(conn)
	}
	drvOut, peerOut := dial(), dial()
	if err := drvOut.send(fleetInitMsg(0, []string{addrs[0], "127.0.0.1:1"})); err != nil {
		t.Fatal(err)
	}
	go pump(drvOut.conn, r.drv, nil)
	r.send = func(from int, m *Msg) {
		m.From = int32(from)
		o := drvOut
		if from == rigPeer {
			o = peerOut
		}
		if err := o.send(m); err != nil {
			t.Error(err)
		}
	}
	return r
}

func rigWire(t *testing.T, prog *isa.Program) []byte {
	b, err := isa.MarshalPods(prog)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// start sends job's KJobStart on the driver stream, with PE 0's page cache
// capped at cap pages: every ack echoes the cap (CacheCapNow), which tells
// two starts of one job apart.
func (r *inboxRig) start(job int32, cap int) {
	cfg := Config{NumPEs: 2, CachePages: cap}
	if err := cfg.fill(); err != nil {
		r.t.Fatal(err)
	}
	m := jobStartMsg(&cfg, nil, r.wire)
	m.Job = job
	r.send(rigDriver, m)
}

func (r *inboxRig) probe(from int, job, round int32) {
	r.send(from, &Msg{Kind: KProbe, Job: job, Round: round})
}

// ack returns the next probe answer PE 0 sent the driver for job,
// skipping idle reports.
func (r *inboxRig) ack(job int32) *Msg {
	r.t.Helper()
	box := r.boxes[job]
	if box == nil {
		box = r.drv.open(job)
		r.boxes[job] = box
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		m, err := box.recv(ctx)
		if err != nil {
			r.t.Fatalf("job %d: waiting for an ack: %v", job, err)
		}
		if m.Kind == KAck && m.Round != 0 {
			return m
		}
	}
}

// eachTransport runs body on a channel-transport rig and on a loopback
// ServeWorker rig.
func eachTransport(t *testing.T, body func(t *testing.T, r *inboxRig)) {
	t.Run("chan", func(t *testing.T) { body(t, newChanRig(t)) })
	t.Run("tcp", func(t *testing.T) { body(t, newTCPRig(t)) })
}

// TestInboxEarlyFramesInOrder: frames a peer sends for a job before PE 0
// has seen the job's KJobStart wait for it, and the worker then sees every
// sender's frames in send order.
func TestInboxEarlyFramesInOrder(t *testing.T) {
	eachTransport(t, func(t *testing.T, r *inboxRig) {
		const job = 7
		for round := int32(1); round <= 5; round++ {
			r.probe(rigPeer, job, round)
		}
		r.start(job, 0)
		for round := int32(101); round <= 103; round++ {
			r.probe(rigDriver, job, round)
		}
		peer, drv := int32(1), int32(101)
		for range 8 {
			switch m := r.ack(job); {
			case m.Round == peer:
				peer++
			case m.Round == drv:
				drv++
			default:
				t.Fatalf("ack of round %d; want %d (peer) or %d (driver)", m.Round, peer, drv)
			}
		}
	})
}

// TestInboxEndedJobDropsLateFrames: frames for a job that reach PE 0 after
// its KJobEnd are dropped, not held: a later start of the same job ID
// never sees them.
func TestInboxEndedJobDropsLateFrames(t *testing.T) {
	eachTransport(t, func(t *testing.T, r *inboxRig) {
		const job = 9
		r.start(job, 0)
		r.probe(rigDriver, job, 1)
		if m := r.ack(job); m.Round != 1 {
			t.Fatalf("first ack answers round %d, want 1", m.Round)
		}
		r.send(rigDriver, &Msg{Kind: KJobEnd, Job: job})
		r.probe(rigDriver, job, 2)
		r.start(job, 0)
		r.probe(rigDriver, job, 3)
		if m := r.ack(job); m.Round != 3 {
			t.Fatalf("after the restart the worker answered round %d, want 3 (a late frame was held)", m.Round)
		}
	})
}

// TestInboxReplacementStartRetiresOldInbox: a second KJobStart for a
// running job (no driver sends one) routes every later frame to the new
// instance; the old one answers nothing more.
func TestInboxReplacementStartRetiresOldInbox(t *testing.T) {
	eachTransport(t, func(t *testing.T, r *inboxRig) {
		const job = 11
		r.start(job, 0)
		r.probe(rigDriver, job, 1)
		if m := r.ack(job); m.Round != 1 || m.Ack.CacheCapNow != 0 {
			t.Fatalf("first ack: round %d cap %d, want 1/0", m.Round, m.Ack.CacheCapNow)
		}
		r.start(job, 1)
		for round := int32(2); round <= 4; round++ {
			r.probe(rigDriver, job, round)
			if m := r.ack(job); m.Round != round || m.Ack.CacheCapNow != 1 {
				t.Fatalf("after the replacement start: round %d answered with cap %d, want %d with cap 1", m.Round, m.Ack.CacheCapNow, round)
			}
		}
	})
}

// TestInboxFloodHeldToBound: a peer flooding frames for job IDs that never
// start costs at most hostStashMax held frames per PE, and a real job
// submitted afterwards still completes.
func TestInboxFloodHeldToBound(t *testing.T) {
	const flood = hostStashMax + 1000
	bogus := func(i int) *Msg {
		return &Msg{Kind: KToken, Job: 1<<30 + int32(i%3), From: 1, SP: int64(i), Val: isa.Int(1)}
	}
	k, prog := compileKernel(t, "matmul")
	vals, masks := simArraysMasked(t, prog, 2, k.Arrays, k.Args(6)...)
	run := func(t *testing.T, f *Fleet) {
		res, err := f.Submit(testCtx(t), prog, Config{PageElems: 8}, k.Args(6)...)
		if err != nil {
			t.Fatalf("job after the flood: %v", err)
		}
		checkAgainstSimMasked(t, res, vals, masks)
	}

	t.Run("chan", func(t *testing.T) {
		f, err := OpenFleet(testCtx(t), Config{NumPEs: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		peer := f.cnet.endpoint(1)
		for i := range flood {
			if err := peer.Send(0, bogus(i)); err != nil {
				t.Fatal(err)
			}
		}
		in := f.cnet.ins[0]
		in.mu.Lock()
		held := in.held
		in.mu.Unlock()
		if held != hostStashMax {
			t.Fatalf("%d frames held for never-started jobs, want the bound %d", held, hostStashMax)
		}
		run(t, f)
	})
	t.Run("tcp", func(t *testing.T) {
		ctx := testCtx(t)
		addrs, join := startTCPWorkers(t, ctx, 2)
		defer join()
		f, err := OpenFleet(ctx, Config{Workers: addrs})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		conn, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		o := newOutbox(conn)
		for i := range flood {
			if err := o.send(bogus(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := o.flush(); err != nil {
			t.Fatal(err)
		}
		run(t, f)
	})
}

// TestInboxConcurrentSenders drives one table from several sender
// goroutines at once while jobs open and end under them: each sender's
// frames reach every open inbox in send order, frames that raced a start
// are adopted whole, and an ended job keeps only a prefix.
func TestInboxConcurrentSenders(t *testing.T) {
	const senders, each = 4, 400
	check := func(t *testing.T, in *inboxTable, send func(from int, m *Msg)) {
		// Job 1 is open throughout, job 2 opens mid-flood, job 3 ends
		// mid-flood.
		open1, open3 := in.open(1), in.open(3)
		var wg, half sync.WaitGroup
		half.Add(senders)
		for s := 1; s <= senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 1; i <= each; i++ {
					for job := int32(1); job <= 3; job++ {
						send(s, &Msg{Kind: KToken, Job: job, SP: int64(i)})
					}
					if i == each/2 {
						half.Done()
					}
				}
			}()
		}
		half.Wait()
		open2 := in.open(2)
		in.end(3)
		wg.Wait()

		ctx := testCtx(t)
		for job, box := range map[int32]*mailbox{1: open1, 2: open2} {
			next := make([]int64, senders+1)
			for range senders * each {
				m, err := box.recv(ctx)
				if err != nil {
					t.Fatalf("job %d: %v", job, err)
				}
				if next[m.From]++; m.SP != next[m.From] {
					t.Fatalf("job %d: sender %d's frame %d arrived in position %d", job, m.From, m.SP, next[m.From])
				}
			}
		}
		next := make([]int64, senders+1)
		for {
			m, ok, _, _ := open3.pop()
			if !ok {
				break
			}
			if next[m.From]++; m.SP != next[m.From] {
				t.Fatalf("ended job: sender %d's frame %d arrived in position %d", m.From, m.SP, next[m.From])
			}
		}
	}

	t.Run("chan", func(t *testing.T) {
		cn := newChanNet(senders, 0)
		check(t, cn.ins[0], func(from int, m *Msg) {
			if err := cn.endpoint(from).Send(0, m); err != nil {
				t.Error(err)
			}
		})
	})
	t.Run("tcp", func(t *testing.T) {
		in := newInboxTable(0)
		outs := make([]*outbox, senders+1)
		for s := 1; s <= senders; s++ {
			a, b := loopbackPair(t)
			outs[s] = newOutbox(a)
			go pump(b, in, nil)
		}
		check(t, in, func(from int, m *Msg) {
			m.From = int32(from)
			if err := outs[from].send(m); err != nil {
				t.Error(err)
			}
		})
	})
}

// TestChanSeverDiscardsQueued: the fault injector's kill severs the PE's
// fleet host from everything still queued for it. The frames waiting in
// its box are discarded and the box closes, so the host acts on nothing
// more: its receive fails with ErrClosed at once, and the driver hears a
// KDown.
func TestChanSeverDiscardsQueued(t *testing.T) {
	cn := newChanNet(2, 0)
	cn.arm(0, 0)
	pe, driver := cn.endpoint(0), cn.endpoint(2)
	for _, m := range []*Msg{{Kind: KSpawn}, {Kind: KStop}} {
		if err := driver.Send(0, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := pe.Send(1, &Msg{Kind: KAck}); err != ErrClosed {
		t.Fatalf("the kill did not fire: send returned %v", err)
	}
	if m, ok := pe.in.box.tryRecv(); ok {
		t.Fatalf("the severed box still delivered a %v", m.Kind)
	}
	if m, err := pe.in.box.recv(testCtx(t)); err != ErrClosed {
		t.Fatalf("receive on the severed box: %v, %v; want ErrClosed", m, err)
	}
	if m, ok := cn.ins[2].box.tryRecv(); !ok || m.Kind != KDown || m.From != 0 {
		t.Fatalf("driver got %+v, want PE 0's KDown", m)
	}
}
