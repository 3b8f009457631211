package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/isa"
	"repro/internal/kernels"
)

// startTCPWorkers launches n in-process TCP workers on loopback ports and
// returns their addresses plus a join function.
func startTCPWorkers(t *testing.T, ctx context.Context, n int) ([]string, func()) {
	t.Helper()
	addrs := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ServeWorker(ctx, ln); err != nil && ctx.Err() == nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	return addrs, wg.Wait
}

// TestTCPMatmulAgreesWithSim is the acceptance check for the TCP transport:
// workers on separate loopback ports, exchanging length-prefixed frames,
// must produce bit-for-bit the simulator's arrays.
func TestTCPMatmulAgreesWithSim(t *testing.T) {
	k, _ := kernels.ByName("matmul")
	prog := compile(t, k.File(), k.Source)
	const n = 8
	want := simArrays(t, prog, 4, k.Arrays, k.Args(n)...)

	ctx := testCtx(t)
	addrs, join := startTCPWorkers(t, ctx, 4)
	res, err := Execute(ctx, prog, Config{Workers: addrs}, k.Args(n)...)
	if err != nil {
		t.Fatal(err)
	}
	join()
	checkAgainstSim(t, res, want)
	if res.Stats.MsgsSent == 0 {
		t.Error("TCP run sent no inter-PE messages")
	}
}

// TestTCPStealTriangular checks that the Steal knob travels through KInit
// to TCP workers and that migration over real sockets stays determinate.
// (Whether any steal lands depends on host scheduling; the knob plumbing
// and the steal-on schedule's agreement are what this pins down.)
func TestTCPStealTriangular(t *testing.T) {
	k, _ := kernels.ByName("triangular")
	prog := compile(t, k.File(), k.Source)
	const n = 24
	wantVals, wantMasks := simArraysMasked(t, prog, 4, k.Arrays, k.Args(n)...)

	ctx := testCtx(t)
	addrs, join := startTCPWorkers(t, ctx, 4)
	res, err := Execute(ctx, prog, Config{Workers: addrs, Steal: true}, k.Args(n)...)
	if err != nil {
		t.Fatal(err)
	}
	join()
	checkAgainstSimMasked(t, res, wantVals, wantMasks)
	t.Logf("tcp triangular@4PE: steals=%d forwards=%d", res.Stats.Steals, res.Stats.Forwards)
}

// TestTCPReturnsValue checks the result-token path over TCP.
func TestTCPReturnsValue(t *testing.T) {
	prog := compile(t, "ret.id", `
func main(a: int, b: int) -> int {
	return a * b + 1;
}`)
	ctx := testCtx(t)
	addrs, join := startTCPWorkers(t, ctx, 2)
	res, err := Execute(ctx, prog, Config{Workers: addrs}, isa.Int(6), isa.Int(7))
	if err != nil {
		t.Fatal(err)
	}
	join()
	if res.Value == nil || res.Value.I != 43 {
		t.Fatalf("result = %+v, want 43", res.Value)
	}
}

// --- the batched message path: outbox, frameReader, pump ---

// countConn is a net.Conn that counts Write calls, can hold every write
// at a gate until the test opens it, and can fail writes.
type countConn struct {
	net.Conn
	writes atomic.Int64
	gate   chan struct{} // nil = open
	fail   error
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	if c.gate != nil {
		<-c.gate
	}
	if c.fail != nil {
		return 0, c.fail
	}
	return c.Conn.Write(b)
}

// loopbackPair returns the two ends of one established loopback TCP
// connection, closed at test end.
func loopbackPair(t testing.TB) (dialed, accepted net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	accepted, err = ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dialed.Close(); accepted.Close() })
	return dialed, accepted
}

// TestTCPCoalescedFIFO: several jobs' goroutines send numbered frames
// through one worker's tcpEndpoint to one peer. Each sender's order survives into its
// job's inbox, the frames queued while a write is in flight leave in a
// single later write, and a lone frame on an idle connection is written at
// once, by itself.
func TestTCPCoalescedFIFO(t *testing.T) {
	a, b := loopbackPair(t)
	cc := &countConn{Conn: a, gate: make(chan struct{})}
	w := &tcpEndpoint{self: 0, in: newInboxTable(0), links: make([]tcpLink, 3)}
	w.links[1].out = newOutbox(cc)
	in := newInboxTable(0)
	go pump(b, in, nil)

	const senders, each = 4, 500
	boxes := make([]*mailbox, senders+1)
	for s := 1; s <= senders; s++ {
		boxes[s] = in.open(int32(s))
	}
	var wg sync.WaitGroup
	for s := 1; s <= senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				if err := w.Send(1, &Msg{Kind: KToken, Job: int32(s), SP: int64(i), Val: isa.Int(int64(i))}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait() // every frame is queued; the first write is still held at the gate
	close(cc.gate)
	for s := 1; s <= senders; s++ {
		for i := int64(1); i <= each; i++ {
			m, err := boxes[s].recv(testCtx(t))
			if err != nil {
				t.Fatal(err)
			}
			if m.Job != int32(s) || m.SP != i || m.From != 0 {
				t.Fatalf("job %d: frame %d of job %d arrived in position %d (from %d)", s, m.SP, m.Job, i, m.From)
			}
		}
	}
	held := cc.writes.Load()
	if held > 2 {
		t.Errorf("%d frames took %d writes, want at most 2 (the one held at the gate, then everything queued behind it)", senders*each, held)
	}

	if err := w.Send(1, &Msg{Kind: KProbe, Round: 9}); err != nil {
		t.Fatal(err)
	}
	if m, err := in.box.recv(testCtx(t)); err != nil || m.Kind != KProbe || m.Round != 9 {
		t.Fatalf("lone frame: %+v, %v", m, err)
	}
	if n := cc.writes.Load() - held; n != 1 {
		t.Errorf("a lone frame on an idle connection took %d writes, want 1", n)
	}
}

// TestOutboxCloseFlushes: a reply followed by close reaches the peer —
// the KFail/KResult-then-close shape of the job server and of a worker
// going down.
func TestOutboxCloseFlushes(t *testing.T) {
	a, b := loopbackPair(t)
	o := newOutbox(a)
	for i := 0; i < 100; i++ {
		if err := o.send(&Msg{Kind: KDump, Off: int32(i), Vals: make([]isa.Value, 64), Set: make([]bool, 64)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.send(&Msg{Kind: KFail, Name: "boom"}); err != nil {
		t.Fatal(err)
	}
	o.close()
	if err := o.send(&Msg{Kind: KStop}); !errors.Is(err, net.ErrClosed) {
		t.Errorf("send after close: %v, want net.ErrClosed", err)
	}
	fr := newFrameReader(b)
	for i := 0; i <= 100; i++ {
		m, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i == 100 && (m.Kind != KFail || m.Name != "boom") {
			t.Fatalf("last frame = %+v, want the KFail", m)
		}
	}
	if _, err := fr.next(); err != io.EOF {
		t.Errorf("after the flushed frames: %v, want EOF", err)
	}
}

// TestOutboxStickyWriteError: send does not wait for the socket, so a
// failed write is reported by the next send — and by all later ones.
func TestOutboxStickyWriteError(t *testing.T) {
	a, _ := loopbackPair(t)
	boom := errors.New("wire cut")
	o := newOutbox(&countConn{Conn: a, fail: boom})
	if err := o.send(&Msg{Kind: KProbe}); err != nil {
		t.Fatalf("first send: %v (the write has not happened yet)", err)
	}
	if err := o.flush(); !errors.Is(err, boom) {
		t.Fatalf("flush: %v, want the write error", err)
	}
	for i := 0; i < 2; i++ {
		if err := o.send(&Msg{Kind: KProbe}); !errors.Is(err, boom) {
			t.Fatalf("send %d after the failed write: %v, want the write error", i, err)
		}
	}
	if err := o.send(&Msg{Kind: KDump, Vals: make([]isa.Value, maxFrame/valueSize+1)}); err == nil {
		t.Error("a frame over maxFrame was queued")
	}
}

// TestTCPSeveredPeerYieldsDown: the driver's pump turns a dropped worker
// connection into a KDown notice stamped with the host generation, after
// the frames that arrived before the drop.
func TestTCPSeveredPeerYieldsDown(t *testing.T) {
	a, b := loopbackPair(t)
	d := &tcpEndpoint{self: 2, in: newInboxTable(0), links: []tcpLink{{out: newOutbox(a)}}}
	go d.pumpWorker(0, 3, a)
	peer := newOutbox(b)
	if err := peer.send(&Msg{Kind: KAck, From: 0, Round: 1}); err != nil {
		t.Fatal(err)
	}
	peer.close()
	for _, want := range []MsgKind{KAck, KDown} {
		m, err := d.in.box.recv(testCtx(t))
		if err != nil || m.Kind != want {
			t.Fatalf("got %+v, %v; want a %v", m, err, want)
		}
		if want == KDown && (m.From != 0 || m.Gen != 3) {
			t.Fatalf("KDown names pe %d generation %d, want 0/3", m.From, m.Gen)
		}
	}
}

// TestTCPWorkerRefusesMalformedInit: a worker sizes its link table from
// its KInit, so a KInit whose PE count no packed ID can name, or whose PE
// index lies outside it, ends the session with an error: no panic, no
// giant allocation, and the driver's connection is closed.
func TestTCPWorkerRefusesMalformedInit(t *testing.T) {
	ctx := testCtx(t)
	for _, c := range []MsgCfg{
		{PE: 0, NumPEs: -5},
		{PE: 0, NumPEs: 0},
		{PE: 0, NumPEs: maxPEs + 1},
		{PE: 0, NumPEs: 1<<31 - 1},
		{PE: -1, NumPEs: 2},
		{PE: 2, NumPEs: 2},
	} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- ServeWorker(ctx, ln) }()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, &Msg{Kind: KInit, Cfg: &c}); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err == nil || !strings.Contains(err.Error(), "refused KInit") {
			t.Errorf("KInit for PE %d of %d: ServeWorker returned %v, want a refusal", c.PE, c.NumPEs, err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("KInit for PE %d of %d: driver connection read %v, want EOF", c.PE, c.NumPEs, err)
		}
		conn.Close()
	}
}

// TestReadFrameHostileLength: a length prefix commits no memory. Four
// bytes announcing a 64 MiB frame, followed by EOF or by a trickle, cost a
// bounded allocation and a clean error — and the job server, whose socket
// is public, serves the next connection.
func TestReadFrameHostileLength(t *testing.T) {
	prefix := []byte{0x03, 0xff, 0xff, 0xff}
	for _, trickle := range []int{0, 3000} {
		a, b := loopbackPair(t)
		go func() {
			a.Write(prefix)
			for i := 0; i < trickle; i += 100 {
				a.Write(make([]byte, 100))
			}
			a.Close()
		}()
		var err error
		got := allocatedBy(1, func() { _, err = newFrameReader(b).next() })
		if err != io.ErrUnexpectedEOF && err != io.EOF {
			t.Errorf("trickle %d: error %v, want an EOF", trickle, err)
		}
		if got > readBufSize+2*bigFrameStep {
			t.Errorf("trickle %d: a 4-byte prefix made the reader allocate %d bytes", trickle, got)
		}
	}
	if _, err := newFrameReader(bytes.NewReader([]byte{0x04, 0, 0, 1})).next(); err == nil {
		t.Error("a length over maxFrame was accepted")
	}

	ctx := testCtx(t)
	fleet, err := OpenFleet(ctx, Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fleet.ServeJobs(ctx, ln)
	for i := 0; i < 8; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.Write(prefix)
		defer c.Close() // held open: the server must not be waiting on it
	}
	k, prog := compileKernel(t, "matmul")
	if _, err := SubmitJob(ctx, ln.Addr().String(), prog, Config{PageElems: 8}, k.Args(6)...); err != nil {
		t.Fatalf("job after hostile connections: %v", err)
	}
}

// TestFrameReaderBoundaries: frames split at every byte position across
// reads, frames larger than the read buffer, and frames that end exactly
// at its edge all decode, in order.
func TestFrameReaderBoundaries(t *testing.T) {
	var stream []byte
	var want []int32
	add := func(vals int) {
		var err error
		stream, err = appendFrame(stream, &Msg{Kind: KDump, Off: int32(len(want)), Vals: make([]isa.Value, vals)})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, int32(len(want)))
	}
	for _, vals := range []int{0, 1, 50, readBufSize / valueSize, 3 * readBufSize / valueSize, 7, 0} {
		add(vals)
	}
	for len(stream)%readBufSize != 0 { // land one frame boundary exactly on the buffer edge
		add(0)
	}
	add(2)
	for _, chunk := range []int{1, 7, 4096, readBufSize, len(stream)} {
		fr := newFrameReader(&chunkReader{r: bytes.NewReader(stream), n: chunk})
		for i, off := range want {
			m, err := fr.next()
			if err != nil || m.Off != off {
				t.Fatalf("chunk %d: frame %d: %+v, %v", chunk, i, m, err)
			}
		}
		if _, err := fr.next(); err != io.EOF {
			t.Fatalf("chunk %d: after the last frame: %v, want EOF", chunk, err)
		}
	}
}

// chunkReader returns at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(b []byte) (int, error) { return c.r.Read(b[:min(len(b), c.n)]) }

// TestProgMemo: a TCP worker unmarshals a program once however often it
// is submitted, a different program misses, and the fifth distinct
// program evicts the least recently used.
func TestProgMemo(t *testing.T) {
	var wires [][]byte
	for _, name := range []string{"matmul", "heat", "relax", "triangular", "pipeline"} {
		_, prog := compileKernel(t, name)
		b, err := isa.MarshalPods(prog)
		if err != nil {
			t.Fatal(err)
		}
		wires = append(wires, b)
	}
	var pm progMemo
	get := func(i int) *isa.Program {
		p, err := pm.get(wires[i])
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p0 := get(0)
	if get(0) != p0 {
		t.Fatal("second submit of one program unmarshalled it again")
	}
	if get(1) == p0 {
		t.Fatal("a different program hit the memo")
	}
	get(2)
	get(3)
	if get(0) != p0 {
		t.Fatal("four programs do not fit the memo")
	}
	get(4) // evicts program 1, the least recently used
	if get(0) != p0 {
		t.Fatal("the most recently used program was evicted")
	}
	p2 := get(2)
	if get(1); get(2) != p2 {
		t.Fatal("reloading the evicted program displaced a recently used one")
	}
	if _, err := pm.get([]byte("not a program")); err == nil {
		t.Fatal("garbage unmarshalled")
	}
	if get(2) != p2 {
		t.Fatal("a failed unmarshal displaced a memo entry")
	}
}

// --- layer (d): one transport crossing, chan and loopback TCP ---

// benchChanEcho returns party 0 of a two-party transport whose party 1
// sends every message it receives straight back.
func benchChanEcho(b *testing.B) *jobEndpoint {
	eps := newChanTransport(2, 0)
	go func() {
		for {
			m, err := eps[1].in.recv(context.Background())
			if err != nil {
				return
			}
			eps[1].Send(0, m)
		}
	}()
	b.Cleanup(func() { eps[1].Close() })
	return eps[0]
}

func benchLoopbackEcho(b *testing.B) *jobEndpoint {
	x, y := loopbackPair(b)
	echo := &tcpEndpoint{self: 1, in: newInboxTable(0), links: []tcpLink{{out: newOutbox(y)}}}
	go pump(y, echo.in, nil)
	go func() {
		for {
			m, err := echo.in.box.recv(context.Background())
			if err != nil {
				return
			}
			echo.Send(0, m)
		}
	}()
	d := &tcpEndpoint{self: 0, in: newInboxTable(0), links: []tcpLink{{out: newOutbox(x)}}}
	go pump(x, d.in, nil)
	b.Cleanup(func() { d.Close(); echo.Close() })
	return &jobEndpoint{out: d, in: d.in.box}
}

// benchRoundTrip sends burst token frames and waits for all their echoes,
// b.N times: burst 1 is a ping-pong (latency of one crossing and back),
// burst 64 the amortized per-frame cost when the path can batch.
func benchRoundTrip(b *testing.B, ep *jobEndpoint, burst int) {
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			if err := ep.Send(0, &Msg{Kind: KToken, SP: int64(j), Slot: 1, Val: isa.Float(1)}); err != nil {
				b.Fatal(err)
			}
		}
		for j := 0; j < burst; j++ {
			if _, err := ep.in.recv(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/frame")
}

func BenchmarkRoundTripChan(b *testing.B) {
	b.Run("pingpong", func(b *testing.B) { benchRoundTrip(b, benchChanEcho(b), 1) })
	b.Run("burst64", func(b *testing.B) { benchRoundTrip(b, benchChanEcho(b), 64) })
}

func BenchmarkRoundTripLoopback(b *testing.B) {
	b.Run("pingpong", func(b *testing.B) { benchRoundTrip(b, benchLoopbackEcho(b), 1) })
	b.Run("burst64", func(b *testing.B) { benchRoundTrip(b, benchLoopbackEcho(b), 64) })
}
