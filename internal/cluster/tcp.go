package cluster

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/isa"
)

// The TCP transport runs each PE as its own endpoint over real sockets, so
// workers can be separate OS processes (cmd/podsd). Framing is a 4-byte
// big-endian length prefix followed by the protocol.go wire encoding.
//
// Topology: the driver dials every worker and configures it with KInit
// (PE index and peer address list; programs arrive per job). Workers dial
// each other lazily on first send. Every connection is written only by the
// endpoint that created it — except the driver connection, which is duplex
// (driver → probes/spawns, worker → acks/results) — but any number of
// goroutines (one per job hosted on the endpoint) send through it, so each
// connection's write side is an outbox: senders append encoded frames to a
// pending buffer under the outbox's own lock, and one drainer at a time
// writes everything queued since the previous write with a single
// syscall. Per-pair FIFO is the buffer order of a single ordered stream.
// The read side (frameReader) decodes every frame that one read returned
// out of a reusable buffer and hands the batch to the endpoint's inbox
// table at once.

// maxFrame bounds a frame's payload (a page of values is ~KB; programs a
// few hundred KB — 64 MiB is generous headroom against corrupt prefixes).
const maxFrame = 1 << 26

// readBufSize is a connection's reusable read buffer; a frame larger than
// it is read into a slice of its own that grows by bigFrameStep (or by
// doubling, past that) only once every byte allocated so far has arrived,
// so a length prefix alone never commits memory.
const (
	readBufSize  = 64 << 10
	bigFrameStep = 1 << 20
)

// closeFlushWait bounds how long closing an outbox waits for its queued
// frames to reach the socket (a peer that stopped reading must not wedge
// the closer). keepBuf is the largest write buffer an outbox keeps for
// reuse: bursts against a busy reader reach a megabyte or two, while the
// buffer of a rare huge frame should not stay pinned.
const (
	closeFlushWait = 2 * time.Second
	keepBuf        = 4 << 20
)

// outbox is the write side of one connection. send never blocks on the
// socket: it encodes into pend and makes sure a drainer is running. The
// drainer exists only while there is something to write — an idle
// connection has no goroutine, and a lone frame is written at once.
// Nothing bounds pend, for the same reason the mailbox is unbounded:
// worker loops both send and receive, so a blocking send could deadlock
// two workers against each other's full sockets.
type outbox struct {
	conn net.Conn

	mu       sync.Mutex
	idle     sync.Cond // signalled when the drainer exits
	pend     []byte    // encoded frames not yet handed to the drainer
	spare    []byte    // the drainer's previous buffer, for reuse
	draining bool
	err      error // sticky: the first write error, or net.ErrClosed after close
	gone     bool  // the peer is known dead: sends succeed and write nothing
}

func newOutbox(conn net.Conn) *outbox {
	o := &outbox{conn: conn}
	o.idle.L = &o.mu
	return o
}

// appendFrame appends m's length-prefixed frame to b.
func appendFrame(b []byte, m *Msg) ([]byte, error) {
	start := len(b)
	b = encodeMsg(append(b, 0, 0, 0, 0), m)
	n := len(b) - start - 4
	if n > maxFrame {
		return b[:start], fmt.Errorf("cluster: frame of %d bytes exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// writeFrame writes one frame synchronously: for a connection with a single
// sender that wants the socket's backpressure (the job-server sockets).
func writeFrame(conn net.Conn, m *Msg) error {
	b, err := appendFrame(nil, m)
	if err == nil {
		_, err = conn.Write(b)
	}
	return err
}

// send queues one frame. A write error is reported by the first send after
// it happened, and by every later one: the frames queued before it are
// lost, exactly as if the connection had dropped after a synchronous
// write returned.
func (o *outbox) send(m *Msg) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.gone {
		return nil
	}
	if o.err != nil {
		return o.err
	}
	var err error
	if o.pend, err = appendFrame(o.pend, m); err != nil {
		return err
	}
	if !o.draining {
		o.draining = true
		go o.drain()
	}
	return nil
}

// drain writes pend until it is empty or a write fails. Frames appended
// while a write is in flight go out together in the next one.
func (o *outbox) drain() {
	o.mu.Lock()
	for len(o.pend) > 0 && o.err == nil {
		buf := o.pend
		o.pend, o.spare = o.spare[:0], nil
		o.mu.Unlock()
		_, err := o.conn.Write(buf)
		o.mu.Lock()
		if err != nil {
			o.err = err
		}
		if cap(buf) <= keepBuf {
			o.spare = buf
		}
	}
	o.draining = false
	o.idle.Broadcast()
	o.mu.Unlock()
}

// flush waits until every frame queued so far has been written, or a
// write failed.
func (o *outbox) flush() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.draining {
		o.idle.Wait()
	}
	return o.err
}

// close flushes what is queued (for at most closeFlushWait), then closes
// the connection, so a reply followed by close still reaches the peer.
// Later sends fail.
func (o *outbox) close() {
	// A deadline the socket refuses to take only costs the bound.
	_ = o.conn.SetWriteDeadline(time.Now().Add(closeFlushWait))
	if o.flush() == nil {
		o.mu.Lock()
		o.err = net.ErrClosed
		o.mu.Unlock()
	}
	o.conn.Close()
}

// frameReader decodes length-prefixed frames out of one reusable read
// buffer. Decoded messages never alias it (decodeMsg copies).
type frameReader struct{ br *bufio.Reader }

func newFrameReader(r io.Reader) frameReader {
	return frameReader{bufio.NewReaderSize(r, readBufSize)}
}

// more reports whether next would return without reading from the socket.
func (fr frameReader) more() bool {
	if fr.br.Buffered() < 4 {
		return false
	}
	hdr, _ := fr.br.Peek(4)
	return int(binary.BigEndian.Uint32(hdr)) <= fr.br.Buffered()-4
}

// next decodes the next frame, reading from the connection as needed. A
// stream that ends inside a frame is io.ErrUnexpectedEOF.
func (fr frameReader) next() (*Msg, error) {
	hdr, err := fr.br.Peek(4)
	if err != nil {
		if len(hdr) > 0 {
			err = midFrame(err)
		}
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n > maxFrame {
		return nil, fmt.Errorf("cluster: frame length %d exceeds limit", n)
	}
	fr.br.Discard(4)
	if n > readBufSize {
		return fr.nextBig(n)
	}
	payload, err := fr.br.Peek(n)
	if err != nil {
		return nil, midFrame(err)
	}
	m, err := decodeMsg(payload) // in place: the bytes stay buffered until the discard
	fr.br.Discard(n)
	return m, err
}

// nextBig reads a frame larger than the read buffer into a slice that
// grows only once every byte allocated so far has arrived — by
// bigFrameStep, or by doubling past that — so a length prefix alone commits
// one step, and a genuine large frame is not copied quadratically.
func (fr frameReader) nextBig(n int) (*Msg, error) {
	var big []byte
	for len(big) < n {
		at := len(big)
		grown := make([]byte, min(n, at+max(at, bigFrameStep)))
		copy(grown, big)
		big = grown
		if _, err := io.ReadFull(fr.br, big[at:]); err != nil {
			return nil, midFrame(err)
		}
	}
	return decodeMsg(big)
}

func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// pump reads frames from conn into the inbox table in until EOF or error,
// one delivery per batch of frames a read returned. onInit, when non-nil,
// observes KInit messages (the worker uses it to learn its driver
// connection). Decode errors (corrupt frames) surface as synthetic KFail
// messages so the endpoint's owner can abort cleanly; connection-level
// errors (EOF, reset, close) are connection *loss*, which the owner
// detects through its own means — the driver's per-conn wrapper
// synthesizes a KDown, a worker sees its driver stream close.
func pump(conn net.Conn, in *inboxTable, onInit func(net.Conn)) {
	fr := newFrameReader(conn)
	var batch []*Msg
	for {
		m, err := fr.next()
		if err == nil {
			if m.Kind == KInit && onInit != nil {
				onInit(conn)
			}
			batch = append(batch, m)
			if fr.more() {
				continue
			}
		}
		in.putAll(batch)
		clear(batch)
		batch = batch[:0]
		if err != nil {
			var ne net.Error
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) &&
				!errors.Is(err, io.ErrUnexpectedEOF) && !errors.As(err, &ne) {
				in.put(&Msg{Kind: KFail, Name: fmt.Sprintf("transport: %v", err)})
			}
			return
		}
	}
}

// tcpEndpoint is the driver's or a worker's endpoint on the TCP transport:
// the inbox table its connections' pumps fill, and one link per party it
// sends to, indexed by endpoint ID, which every job hosted on the party
// sends through concurrently. The driver's links are dialed up front and
// never redialed: re-homing swaps in the spare's connection. A worker's
// link to the driver (index NumPEs) is the connection its KInit came on;
// its peer links dial lazily from the address table, which a later KInit
// updates when the driver re-homes a PE onto a spare.
type tcpEndpoint struct {
	self  int
	in    *inboxTable
	links []tcpLink
}

// tcpLink is the outbox toward one party plus the address it is dialed
// from. Its lock is never held across a write, only across the dial of a
// nil out on the next send, which only senders to the same party wait for.
type tcpLink struct {
	mu   sync.Mutex
	addr string
	out  *outbox
}

func (t *tcpEndpoint) Send(to int, m *Msg) error {
	if to < 0 || to >= len(t.links) {
		return fmt.Errorf("cluster: send to unknown endpoint %d", to)
	}
	m.From = int32(t.self)
	l := &t.links[to]
	l.mu.Lock()
	if l.out == nil {
		addr := l.addr
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			l.mu.Unlock()
			return fmt.Errorf("cluster: dialing peer %d at %s: %w", to, addr, err)
		}
		l.out = newOutbox(conn)
	}
	o := l.out
	l.mu.Unlock()
	return o.send(m)
}

// repoint moves link `to` to addr with outbox out (nil: dial addr on the
// next send), closing the connection it replaces unflushed: it served a
// dead host. On the driver, that connection's pump exits on the close; its
// KDown carries the old host generation and is fenced by the fleet. A lazy
// move to the address the link already has is a no-op, so a KInit that
// repeats the peer table redials only the PE whose address changed.
func (t *tcpEndpoint) repoint(to int, addr string, out *outbox) {
	l := &t.links[to]
	l.mu.Lock()
	defer l.mu.Unlock()
	if out == nil && l.addr == addr {
		return
	}
	if l.out != nil {
		l.out.conn.Close()
	}
	l.addr, l.out = addr, out
}

// Close flushes and closes every link, a worker's driver link first, and
// closes the table's box.
func (t *tcpEndpoint) Close() error {
	for i := len(t.links) - 1; i >= 0; i-- {
		l := &t.links[i]
		l.mu.Lock()
		o := l.out
		l.mu.Unlock()
		if o != nil {
			o.close()
		}
	}
	t.in.box.close()
	return nil
}

// pumpWorker pumps the driver's connection to worker pe into its table and
// synthesizes a KDown notice when it drops: a worker dying mid-run is
// detected at connection-loss speed, and the notice carries the host
// generation the connection served so a replaced worker's teardown is
// fenced instead of marking the new host dead. From then on the link drops
// what is sent to it, as the channel transport does for a dead PE: the
// KDown is a known-dead host's one death notice. After Close the box is
// closed, so the put is a no-op during normal cleanup.
func (t *tcpEndpoint) pumpWorker(pe int, gen int32, conn net.Conn) {
	pump(conn, t.in, nil)
	l := &t.links[pe]
	l.mu.Lock()
	if o := l.out; o.conn == conn { // not yet re-homed
		o.mu.Lock()
		o.gone = true
		o.mu.Unlock()
	}
	l.mu.Unlock()
	t.in.put(&Msg{Kind: KDown, From: int32(pe), Gen: gen})
}

// ServeWorker runs one TCP worker PE on ln until the driver session ends
// (fleet-level KStop, driver connection loss, or ctx expiry). It accepts
// connections from the driver and from peer workers, waits for the
// driver's fleet-level KInit (identity and peer table — programs and
// knobs arrive per job), and then hosts any number of concurrent job
// instances, created by KJobStart frames and torn down by KJobEnd. Each
// call serves one driver session; a long-lived `podsd -worker` process
// serves sessions in a loop, staying up across drivers and jobs.
func ServeWorker(ctx context.Context, ln net.Listener) error {
	t := &tcpEndpoint{in: newInboxTable(0)} // self and links arrive with the KInit
	var (
		mu       sync.Mutex
		accepted []net.Conn
		ended    bool     // the session is over: a late accept closes at once
		driver   net.Conn // the connection the KInit came on
	)
	onInit := func(conn net.Conn) {
		mu.Lock()
		driver = conn
		mu.Unlock()
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			if ended {
				conn.Close() // accepted as the session ended
			}
			accepted = append(accepted, conn)
			mu.Unlock()
			go func(conn net.Conn) {
				pump(conn, t.in, onInit)
				// If the driver's connection drops without a KStop (driver
				// killed mid-run), close the mailbox so the host drains
				// what it has and exits instead of hanging forever.
				mu.Lock()
				isDriver := conn == driver
				mu.Unlock()
				if isDriver {
					t.in.box.close()
				}
			}(conn)
		}
	}()
	defer func() {
		ln.Close()
		t.Close() // first: flushes the driver connection before it is closed below
		mu.Lock()
		ended = true
		for _, c := range accepted {
			c.Close()
		}
		mu.Unlock()
	}()

	// Wait for the driver's fleet configuration; job frames from eager
	// peers wait in the inbox table meanwhile.
	var init *Msg
	for init == nil {
		m, err := t.in.box.recv(ctx)
		if err != nil {
			return err
		}
		if m.Kind == KInit {
			init = m
		}
	}
	n := int(init.Cfg.NumPEs)
	if n < 1 || n > maxPEs || init.Cfg.PE < 0 || int(init.Cfg.PE) >= n {
		return fmt.Errorf("cluster: refused KInit for PE %d of %d (want 1 ≤ NumPEs ≤ %d, 0 ≤ PE < NumPEs)", init.Cfg.PE, n, maxPEs)
	}
	t.self, t.links = int(init.Cfg.PE), make([]tcpLink, n+1)
	for i := 0; i < n && i < len(init.Cfg.Peers); i++ {
		t.links[i].addr = init.Cfg.Peers[i]
	}
	mu.Lock()
	t.links[n].out = newOutbox(driver)
	mu.Unlock()
	var memo progMemo
	h := newFleetHost(t.self, n, t, t.in, func(_ int32, wire []byte) (*isa.Program, error) {
		if len(wire) == 0 {
			return nil, errors.New("job start carried no program")
		}
		return memo.get(wire)
	})
	h.serve(ctx)
	return nil
}

// progMemo remembers the last few programs a TCP worker unmarshalled, keyed
// by a hash of their wire bytes: a fleet runs the same program over and
// over, and a decoded program (with the decoded templates hanging off it)
// is read-only, so jobs share it exactly as PEs on the channel transport
// share the submitter's. Only the fleet host's single goroutine calls get.
type progMemo struct {
	ents [4]struct {
		sum  [sha256.Size]byte
		prog *isa.Program
	} // most recently used first; unused entries have a nil prog
}

func (pm *progMemo) get(wire []byte) (*isa.Program, error) {
	sum := sha256.Sum256(wire)
	i := 0
	for i < len(pm.ents)-1 && (pm.ents[i].prog == nil || pm.ents[i].sum != sum) {
		i++
	}
	e := pm.ents[i] // the hit, or the least recently used entry to replace
	if e.prog == nil || e.sum != sum {
		prog, err := isa.UnmarshalPods(wire)
		if err != nil {
			return nil, err
		}
		e.sum, e.prog = sum, prog
	}
	copy(pm.ents[1:i+1], pm.ents[:i])
	pm.ents[0] = e
	return e.prog, nil
}
