package cluster

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/istructure"
)

// This file tests and measures the wire codec (protocol.go): round trips
// per kind, truncation, the no-alias rule, a fuzz target, and the
// per-kind encode/decode benchmarks (layer (c) of the ROADMAP's list; the
// transport round trips, layer (d), are in tcp_test.go).

// TestMsgSize pins the hot struct: every frame on every transport is one,
// copied whole by newMsg and zeroed whole by releaseMsg, so a field added
// to Msg instead of a cold block shows here first.
func TestMsgSize(t *testing.T) {
	if n := unsafe.Sizeof(Msg{}); n > 256 {
		t.Fatalf("Msg is %d bytes, want <= 256: move cold fields behind Ack/Cfg/Lists", n)
	}
}

func TestMsgCodecRoundTrip(t *testing.T) {
	msgs := []*Msg{
		{Kind: KToken, From: 3, SP: packID(2, 7), Slot: 5, Val: isa.Float(3.25)},
		{Kind: KSpawn, Tmpl: 4, Args: []isa.Value{isa.Int(9), isa.SPRef(0), isa.Bool(true)}},
		{Kind: KAlloc, Arr: packID(1, 1), Name: "A", Dims: []int32{8, 8}, Origin: 1, Dist: true},
		{Kind: KReadReq, Arr: 77, Off: 12, ReqPE: 2, SP: packID(2, 3), Slot: 1},
		{Kind: KPage, Arr: 77, Page: 2, Off: 65, SP: packID(0, 1), Slot: 2,
			Vals: []isa.Value{isa.Float(1), {}, isa.Float(2)}, Set: []bool{true, false, true}},
		{Kind: KWrite, Arr: 77, Off: 40, Val: isa.Int(-9)},
		{Kind: KFail, Name: "pe 1: boom"},
		{Kind: KProbe, Round: 12},
		{Kind: KAck, Round: 12, Ack: &AckStats{Live: 3, Counters: Counters{MsgsSent: 100, MsgsRecv: 99,
			DeferredReads: 7, CacheHits: 5, CacheMisses: 2, Steals: 4, Forwards: 6, Instrs: 12345,
			Evictions: 11, Refetches: 3}}},
		{Kind: KDumpReq, Arr: 77},
		{Kind: KDump, Arr: 77, Off: 64, Vals: []isa.Value{isa.Float(1.5)}, Set: []bool{true}},
		{Kind: KInit, Cfg: &MsgCfg{PE: 1, NumPEs: 4, Peers: []string{"a:1", "b:2"}}},
		{Kind: KStop},
		{Kind: KStealReq, From: 2},
		{Kind: KStealGrant, Lists: &MsgLists{Batch: []StealItem{
			{SP: packID(1, 9), Tmpl: 3,
				Args:     []isa.Value{isa.Int(7), {}},
				CostLoop: 5, Sweep: packID(0, 2), CostIter: 41},
			{SP: packID(1, 10), Tmpl: 3,
				Args:     []isa.Value{isa.Float(2.5), {}},
				CostLoop: -1},
		}}},
		{Kind: KStealNone},
		{Kind: KSpawn, Tmpl: 6, Args: []isa.Value{isa.Int(3)},
			Sweep: packID(3, 4), RngOn: true, RngLo: -12, RngHi: 99},
		{Kind: KCostReport, Tmpl: 6, Sweep: packID(3, 4),
			Lists: &MsgLists{Iters: []int64{1, 2, 5}, Costs: []int64{10, 20, 50}}},
		{Kind: KRebound, Tmpl: 6, Lists: &MsgLists{Cuts: []int64{4, 9, 13}}},
		{Kind: KToken, From: 2, Job: 3, SP: istructure.PackID(3, 1, 9), Slot: 2, Val: isa.Int(5)},
		{Kind: KAck, Round: 3, Ack: &AckStats{Counters: Counters{MsgsSent: 4, MsgsRecv: 4}}},
		{Kind: KAck, Round: 9, Ack: &AckStats{Counters: Counters{MsgsSent: 8, MsgsRecv: 8, CacheHits: 40, CacheMisses: 3,
			ReadJoins: 5, Prefetches: 6, PrefetchHits: 4, CacheCapNow: 24}}},
		{Kind: KTrace, From: 1, Lists: &MsgLists{TraceEvs: []int64{1, 2, 3, 4, 5}, TraceDrops: 7}},
		{Kind: KJobStart, Job: 2, Cfg: &MsgCfg{Job: Config{PageElems: 8, CachePages: 2,
			Adapt: true, Heat: true}, Prog: []byte("{}")}},
		{Kind: KSubmit, Job: 1, Seq: 7, Name: "triread", Args: []isa.Value{isa.Int(26)},
			Cfg: &MsgCfg{Job: Config{CachePages: 4, Heat: true, MaxInstrs: 1 << 40}, Prog: []byte("p")}},
		{Kind: KResult, Seq: 7, Slot: 1, Val: isa.Float(-0.5)},
		{Kind: KLost, From: 2, Job: 4, ReqPE: 1, Name: "dial tcp 127.0.0.1:9: connection refused"},
	}
	for _, m := range msgs {
		b := encodeMsg(nil, m)
		got, err := decodeMsg(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%s: round trip mismatch:\n sent %+v\n got  %+v", m.Kind, m, got)
		}
	}
	if n := len(encodeMsg(nil, msgs[0])); n > 48 {
		t.Errorf("token frame is %d bytes, want <= 48", n)
	}
	if n := len(encodeMsg(nil, &Msg{Kind: KStealReq, From: 2})); n != 9 {
		t.Errorf("steal request frame is %d bytes, want the 9-byte header alone", n)
	}
}

// randMsg builds a message of kind k with every field of k's wire blocks
// (and no other) set from rng. Empty slices are nil, as decodeMsg leaves
// them.
func randMsg(rng *rand.Rand, k MsgKind) *Msg {
	value := func() isa.Value {
		switch rng.Intn(6) {
		case 0:
			return isa.Value{}
		case 1:
			return isa.Float(rng.NormFloat64())
		case 2:
			return isa.Bool(rng.Intn(2) == 0)
		case 3:
			return isa.Array(rng.Int63())
		case 4:
			return isa.SPRef(rng.Int63())
		}
		return isa.Int(rng.Int63() - 1<<62)
	}
	values := func() []isa.Value {
		var out []isa.Value
		for n := rng.Intn(5); n > 0; n-- {
			out = append(out, value())
		}
		return out
	}
	i64s := func() []int64 {
		var out []int64
		for n := rng.Intn(5); n > 0; n-- {
			out = append(out, rng.Int63()-1<<62)
		}
		return out
	}
	i32s := func() []int32 {
		var out []int32
		for n := rng.Intn(5); n > 0; n-- {
			out = append(out, rng.Int31()-1<<30)
		}
		return out
	}
	str := func() string { return string(make([]byte, rng.Intn(4))) + "x"[:rng.Intn(2)] }
	flip := func() bool { return rng.Intn(2) == 0 }

	m := &Msg{Kind: k, From: rng.Int31n(9), Job: rng.Int31()}
	w, _ := k.layout()
	if w&wSeq != 0 {
		m.Seq = rng.Int63()
	}
	if w&wSP != 0 {
		m.SP, m.Slot = rng.Int63(), rng.Int31()
	}
	if w&wVal != 0 {
		m.Val = value()
	}
	if w&wSpawn != 0 {
		m.Tmpl, m.Args = rng.Int31(), values()
	}
	if w&wElem != 0 {
		m.Arr, m.Off = rng.Int63(), rng.Int31()-1<<30
	}
	if w&wReq != 0 {
		m.ReqPE = rng.Int31n(8)
	}
	if w&wPage != 0 {
		m.Page, m.Vals = rng.Int31(), values()
		for range m.Vals {
			m.Set = append(m.Set, flip())
		}
	}
	if w&wName != 0 {
		m.Name = str()
	}
	if w&wDims != 0 {
		m.Dims, m.Origin, m.Dist = i32s(), rng.Int31n(8), flip()
	}
	if w&wRound != 0 {
		m.Round = rng.Int31()
	}
	if w&wSweep != 0 {
		m.Sweep, m.RngOn, m.RngLo, m.RngHi = rng.Int63(), flip(), -rng.Int63(), rng.Int63()
	}
	if w&wAck != 0 {
		m.Ack = &AckStats{Live: rng.Int63(), QDepth: rng.Int63()}
		for _, f := range counterFields {
			*f.get(&m.Ack.Counters) = rng.Int63()
		}
	}
	if w&wCfg != 0 {
		m.Cfg = &MsgCfg{PE: rng.Int31n(8), NumPEs: rng.Int31n(8), Prog: []byte(str())}
		ints, flags, budgets := m.Cfg.Job.wireKnobs()
		for _, p := range ints {
			*p = int(rng.Int31())
		}
		for _, p := range flags {
			*p = flip()
		}
		for _, p := range budgets {
			*p = rng.Int63()
		}
		if len(m.Cfg.Prog) == 0 {
			m.Cfg.Prog = nil
		}
		for n := rng.Intn(4); n > 0; n-- {
			m.Cfg.Peers = append(m.Cfg.Peers, str())
		}
	}
	if w&(wAdapt|wSteal|wTrace) != 0 {
		m.Lists = &MsgLists{}
	}
	if w&wAdapt != 0 {
		m.Lists.Iters, m.Lists.Costs, m.Lists.Cuts = i64s(), i64s(), i64s()
	}
	if w&wSteal != 0 {
		for n := rng.Intn(4); n > 0; n-- {
			m.Lists.Batch = append(m.Lists.Batch, StealItem{SP: rng.Int63(), Tmpl: rng.Int31(),
				CostLoop: rng.Int31n(4) - 1, Sweep: rng.Int63(), CostIter: rng.Int63(), Args: values()})
		}
	}
	if w&wTrace != 0 {
		m.Lists.TraceEvs, m.Lists.TraceDrops = i64s(), rng.Int63()
	}
	return m
}

// wireKinds lists every kind that has a frame layout.
func wireKinds() []MsgKind {
	var ks []MsgKind
	for k := range kinds {
		if _, ok := MsgKind(k).layout(); ok {
			ks = append(ks, MsgKind(k))
		}
	}
	return ks
}

// TestMsgCodecRoundTripProperty: for every kind, decode(encode(m)) is m
// when m uses exactly the fields of the kind's blocks, and fields outside
// the blocks never reach the wire.
func TestMsgCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, k := range wireKinds() {
		for i := 0; i < 200; i++ {
			m := randMsg(rng, k)
			b := encodeMsg(nil, m)
			got, err := decodeMsg(b)
			if err != nil {
				t.Fatalf("%s: decode: %v", k, err)
			}
			if !reflect.DeepEqual(m, got) {
				t.Fatalf("%s: round trip mismatch:\n sent %+v\n got  %+v", k, m, got)
			}
			// The same message with every other field set encodes identically.
			full := randMsg(rng, KDump)
			full.Kind, full.From, full.Job = m.Kind, m.From, m.Job
			overlay(full, m, kinds[k].w)
			if !bytes.Equal(encodeMsg(nil, full), b) {
				t.Fatalf("%s: fields outside the kind's blocks changed the frame", k)
			}
		}
	}
	if _, err := decodeMsg(encodeMsg(nil, &Msg{Kind: KDown, From: 1})); err == nil {
		t.Error("a KDown frame decoded: a peer could forge a death notice")
	}
}

// overlay copies the fields of src's wire blocks w into dst.
func overlay(dst, src *Msg, w wireBlocks) {
	if w&wSeq != 0 {
		dst.Seq = src.Seq
	}
	if w&wSP != 0 {
		dst.SP, dst.Slot = src.SP, src.Slot
	}
	if w&wVal != 0 {
		dst.Val = src.Val
	}
	if w&wSpawn != 0 {
		dst.Tmpl, dst.Args = src.Tmpl, src.Args
	}
	if w&wElem != 0 {
		dst.Arr, dst.Off = src.Arr, src.Off
	}
	if w&wReq != 0 {
		dst.ReqPE = src.ReqPE
	}
	if w&wPage != 0 {
		dst.Page, dst.Vals, dst.Set = src.Page, src.Vals, src.Set
	}
	if w&wName != 0 {
		dst.Name = src.Name
	}
	if w&wDims != 0 {
		dst.Dims, dst.Origin, dst.Dist = src.Dims, src.Origin, src.Dist
	}
	if w&wRound != 0 {
		dst.Round = src.Round
	}
	if w&wSweep != 0 {
		dst.Sweep, dst.RngOn, dst.RngLo, dst.RngHi = src.Sweep, src.RngOn, src.RngLo, src.RngHi
	}
	dst.Ack, dst.Cfg, dst.Lists = src.Ack, src.Cfg, src.Lists
}

// TestJobConfigCodecComplete: every Config field a job owns survives
// KJobStart and KSubmit. A knob added to Config but not to wireKnobs
// fails here instead of being dropped silently on TCP.
func TestJobConfigCodecComplete(t *testing.T) {
	notJobLevel := map[string]bool{"NumPEs": true, "Workers": true, "Spares": true,
		"Latency": true, "MaxJobs": true}
	var cfg Config
	v := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Name, v.Field(i)
		switch {
		case notJobLevel[name]:
		case f.Kind() == reflect.Bool:
			f.SetBool(true)
		case f.CanInt():
			f.SetInt(int64(i + 1))
		default:
			t.Fatalf("Config.%s: a %v knob has no wire form", name, f.Kind())
		}
	}
	for _, k := range []MsgKind{KJobStart, KSubmit} {
		got, err := decodeMsg(encodeMsg(nil, &Msg{Kind: k, Cfg: &MsgCfg{Job: cfg}}))
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if !reflect.DeepEqual(got.Cfg.Job, cfg) {
			t.Errorf("%s: job config lost on the wire:\n sent %+v\n got  %+v", k, cfg, got.Cfg.Job)
		}
	}
}

func TestMsgCodecTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range wireKinds() {
		b := encodeMsg(nil, randMsg(rng, k))
		for n := 0; n < len(b); n++ {
			if _, err := decodeMsg(b[:n]); err == nil {
				t.Errorf("%s: decode of %d/%d bytes: want error", k, n, len(b))
			}
		}
		if _, err := decodeMsg(append(b, 0)); err == nil {
			t.Errorf("%s: decode with a trailing byte: want error", k)
		}
	}
}

// hostileSeed decodes the FuzzDecodeMsg corpus seed name, which must end
// on count, the encoding of the slice the decode must refuse, and requires
// the decode to fail on that slice with wantErr, not on trailing bytes
// (which would mean the seed no longer matches its kind's layout and
// tests nothing).
func hostileSeed(t *testing.T, name, count, wantErr string) {
	t.Helper()
	s := readSeed(t, name)
	if !strings.HasSuffix(s, count) {
		t.Fatalf("seed %q does not end on the count %q", s, count)
	}
	if _, err := decodeMsg([]byte(s)); err == nil || err.Error() != wantErr {
		t.Fatalf("decode of %s: %v, want %q", name, err, wantErr)
	}
}

// readSeed returns the bytes of the FuzzDecodeMsg corpus seed name.
func readSeed(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile("testdata/fuzz/FuzzDecodeMsg/" + name)
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDecodeSignalingNaNSeed: token-signaling-nan is a KToken whose float
// payload is a signaling NaN, not the bits math.NaN returns. The value is
// its bits, so they survive the decode and the re-encoding unchanged.
func TestDecodeSignalingNaNSeed(t *testing.T) {
	s := readSeed(t, "token-signaling-nan")
	m, err := decodeMsg([]byte(s))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KToken || m.Val.Kind != isa.KindFloat || uint64(m.Val.I) != 0x7ff400000000beef || !math.IsNaN(m.Val.F()) {
		t.Fatalf("decoded %s with value %v (bits %#x), want a token carrying the NaN 0x7ff400000000beef", m.Kind, m.Val, uint64(m.Val.I))
	}
	if b := encodeMsg(nil, m); string(b) != s {
		t.Fatalf("re-encoded as %q, want %q", b, s)
	}
}

// TestDecodeHostileGrantSeed: hostile-grant-huge-batch is a KStealGrant
// whose last four bytes claim 2^31 batch items.
func TestDecodeHostileGrantSeed(t *testing.T) {
	hostileSeed(t, "hostile-grant-huge-batch", "\x00\x00\x00\x80",
		"cluster: frame slice length 2147483648 exceeds payload")
}

// TestDecodeHostilePageSeed: hostile-page-short-set is a KPage whose eight
// values come with one presence bit. Accepted, it would send the receiving
// worker past the end of the presence vector.
func TestDecodeHostilePageSeed(t *testing.T) {
	hostileSeed(t, "hostile-page-short-set", "\x01\x00\x00\x00\x01",
		"cluster: page frame has 8 values and 1 presence bits")
}

// TestDecodeHostileInitSeed: hostile-init-huge-peers is a KInit whose last
// four bytes claim 2^31-1 peer addresses.
func TestDecodeHostileInitSeed(t *testing.T) {
	hostileSeed(t, "hostile-init-huge-peers", "\xff\xff\xff\x7f",
		"cluster: frame slice length 2147483647 exceeds payload")
}

// TestDecodeMsgNoAlias: nothing a decoded Msg holds may point into the
// buffer it was decoded from — the transport reuses that buffer for the
// next read while the Msg sits in a mailbox or a page cache.
func TestDecodeMsgNoAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range wireKinds() {
		for i := 0; i < 20; i++ {
			b := encodeMsg(nil, randMsg(rng, k))
			got, err := decodeMsg(b)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := decodeMsg(bytes.Clone(b))
			for j := range b {
				b[j] ^= 0xff
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: decoded message changed when its read buffer was overwritten", k)
			}
		}
	}
}

// allocatedBy reports the heap bytes f allocates: the smallest of the given
// number of runs, so that with several a background goroutine's allocation
// does not count against f.
func allocatedBy(runs int, f func()) uint64 {
	best := ^uint64(0)
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// FuzzDecodeMsg: decodeMsg parses untrusted bytes (the podsd -serve
// socket). It must never panic, never allocate more than a small multiple
// of its input, and whatever it accepts must re-encode to the same bytes.
// Frames are recycled, so an accepted input must also decode into a frame
// that last held a message of any other kind (every field of its blocks
// set, and Gen, which no frame carries) exactly as into a fresh one.
func FuzzDecodeMsg(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range wireKinds() {
		f.Add(encodeMsg(nil, randMsg(rng, k)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m *Msg
		var err error
		// An isa.Value is 9 bytes on the wire and 16 in memory, a string 4
		// and 16: 4x covers every element type; the constant covers the
		// Msg, its blocks and the error.
		if got := allocatedBy(3, func() { m, err = decodeMsg(data) }); got > uint64(4*len(data)+2048) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		fresh := new(Msg)
		if err := fresh.decode(data); err != nil {
			t.Fatalf("decoding into a fresh frame: %v", err)
		}
		rng := rand.New(rand.NewSource(int64(len(data))))
		for _, k := range wireKinds() {
			if k == fresh.Kind {
				continue
			}
			recycled := randMsg(rng, k)
			recycled.Gen = 1
			if err := recycled.decode(data); err != nil || !reflect.DeepEqual(recycled, fresh) {
				t.Fatalf("decoding into a frame that held a %v: %v\n got  %+v\n want %+v", k, err, recycled, fresh)
			}
		}
		if b := encodeMsg(nil, m); !bytes.Equal(b, data) {
			// A bool has non-canonical encodings (any non-zero byte reads
			// as true); the canonical form must then decode to the same
			// Msg. A Value is its payload bits, NaNs included, so
			// DeepEqual compares the two decodings bit for bit.
			m2, err := decodeMsg(b)
			if err != nil || !reflect.DeepEqual(m, m2) {
				t.Fatalf("re-encoded frame decodes differently: %v", err)
			}
		}
	})
}

// hotFrames are the message shapes of the data plane, at the sizes the
// benchmark workloads send them.
func hotFrames() []struct {
	name string
	m    *Msg
} {
	page := &Msg{Kind: KPage, From: 1, Job: 3, Arr: packID(0, 2), Page: 9, Off: 300, SP: packID(1, 77), Slot: 4,
		Vals: make([]isa.Value, 32), Set: make([]bool, 32)}
	for i := range page.Vals {
		page.Vals[i], page.Set[i] = isa.Float(float64(i)), true
	}
	return []struct {
		name string
		m    *Msg
	}{
		{"token", &Msg{Kind: KToken, From: 1, Job: 3, SP: packID(0, 41), Slot: 2, Val: isa.Float(1.5)}},
		{"readReq", &Msg{Kind: KReadReq, From: 1, Job: 3, Arr: packID(0, 2), Off: 300, ReqPE: 1, SP: packID(1, 77), Slot: 4}},
		{"page32", page},
		{"spawn", &Msg{Kind: KSpawn, From: 1, Job: 3, Tmpl: 12, Sweep: packID(1, 5),
			Args: []isa.Value{isa.Int(4), isa.Array(packID(0, 2)), isa.SPRef(packID(1, 9)), isa.Int(2)}}},
		{"ack", &Msg{Kind: KAck, From: 1, Job: 3, Round: 40, Ack: &AckStats{Counters: Counters{MsgsSent: 31000, MsgsRecv: 30990, Instrs: 2400000}}}},
	}
}

var benchSink MsgKind

func BenchmarkEncodeMsg(b *testing.B) {
	for _, f := range hotFrames() {
		b.Run(f.name, func(b *testing.B) {
			buf := encodeMsg(nil, f.m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = encodeMsg(buf[:0], f.m)
			}
			b.ReportMetric(float64(len(buf)), "frame-bytes")
		})
	}
}

// BenchmarkDecodeMsg decodes each frame into a pooled Msg and releases it,
// as a TCP pump and the receiving worker do.
func BenchmarkDecodeMsg(b *testing.B) {
	for _, f := range hotFrames() {
		b.Run(f.name, func(b *testing.B) {
			buf := encodeMsg(nil, f.m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := decodeMsg(buf)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = m.Kind
				releaseMsg(m)
			}
			b.ReportMetric(float64(len(buf)), "frame-bytes")
		})
	}
}
