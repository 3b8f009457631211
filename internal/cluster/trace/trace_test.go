package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// fixed replaces the wall clock with a deterministic counter so tests can
// assert on event identity.
func fixed(r *Recorder) *int64 {
	var t int64
	r.now = func() int64 { t++; return t }
	return &t
}

func TestRingOverflowDropsOldest(t *testing.T) {
	r := New(4, 1)
	fixed(r)
	for i := int64(0); i < 10; i++ {
		r.Record(EvSPDispatch, i, i, 0)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Drops() != 6 {
		t.Fatalf("Drops = %d, want 6", r.Drops())
	}
	evs := r.Events()
	for i, e := range evs {
		if want := int64(6 + i); e.Instr != want {
			t.Fatalf("event %d: Instr = %d, want %d (oldest must be dropped first)", i, e.Instr, want)
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	r := New(8, 1)
	fixed(r)
	r.Record(EvStealGrant, 100, 3, 7)
	r.Record(EvPageEvict, 200, 42, 5)
	got := Unflatten(r.Flatten())
	want := r.Events()
	if len(got) != len(want) {
		t.Fatalf("round trip length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	// A truncated payload decodes to the whole-event prefix.
	if evs := Unflatten(r.Flatten()[:7]); len(evs) != 1 || evs[0] != want[0] {
		t.Fatalf("truncated payload: got %+v, want one event %+v", evs, want[0])
	}
}

func TestSamplingDeterminism(t *testing.T) {
	pattern := func() []bool {
		r := New(16, 3)
		var out []bool
		for i := 0; i < 12; i++ {
			out = append(out, r.SampleSP())
		}
		return out
	}
	a, b := pattern(), pattern()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sampling diverged at call %d: %v vs %v", i, a, b)
		}
		if want := i%3 == 0; a[i] != want {
			t.Fatalf("call %d: sampled = %v, want %v (every 3rd)", i, a[i], want)
		}
	}
	// sample=1 records everything.
	r := New(4, 1)
	for i := 0; i < 5; i++ {
		if !r.SampleSP() {
			t.Fatalf("sample=1 skipped call %d", i)
		}
	}
}

func TestRecordZeroAlloc(t *testing.T) {
	r := New(64, 1)
	var i int64
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		r.Record(EvSPDispatch, i, i, 0)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f times per call, want 0", allocs)
	}
}

func TestSampleSPZeroAlloc(t *testing.T) {
	r := New(4, 7)
	allocs := testing.AllocsPerRun(1000, func() { r.SampleSP() })
	if allocs != 0 {
		t.Fatalf("SampleSP allocates %.1f times per call, want 0", allocs)
	}
}

func TestTimelineBuilderBounded(t *testing.T) {
	b := NewTimelineBuilder(3)
	for i := 0; i < 5; i++ {
		b.Add(Sample{Round: i})
	}
	tl := b.Done()
	if len(tl.Samples) != 3 || tl.Drops != 2 {
		t.Fatalf("got %d samples, %d drops; want 3, 2", len(tl.Samples), tl.Drops)
	}
	for i, s := range tl.Samples {
		if s.Round != i+2 {
			t.Fatalf("sample %d: round %d, want %d", i, s.Round, i+2)
		}
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	r := New(32, 1)
	clock := fixed(r)
	*clock = 1_000_000
	r.Record(EvSPDispatch, 10, 5, 2)
	r.Record(EvPageFetch, 20, 1, 3)
	r.Record(EvSPComplete, 90, 5, 2)
	r.Record(EvSPDispatch, 95, 6, 2) // left open: must surface as an instant
	tb := NewTimelineBuilder(8)
	tb.Add(Sample{Round: 1, Wall: 1_000_500, PE: 0, Instrs: 90, QDepth: 2})

	tr := &Trace{NumPEs: 1, PEs: []PETrace{{Events: r.Events(), Drops: r.Drops()}}, Timeline: tb.Done()}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr, nil); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v\n%s", err, buf.String())
	}
	var slices, instants, counters, meta int
	for _, e := range evs {
		switch e["ph"] {
		case "X":
			slices++
		case "i":
			instants++
		case "C":
			counters++
		case "M":
			meta++
		}
	}
	if slices != 1 {
		t.Fatalf("got %d X slices, want 1 (paired dispatch/complete)", slices)
	}
	if instants != 2 {
		t.Fatalf("got %d instants, want 2 (page fetch + open dispatch)", instants)
	}
	if counters != 2 || meta != 1 {
		t.Fatalf("got %d counters, %d metadata; want 2, 1", counters, meta)
	}
}

func TestWriteTimelineCSV(t *testing.T) {
	tb := NewTimelineBuilder(4)
	tb.Add(Sample{Round: 1, Wall: 2_000_000, PE: 0, Instrs: 50, QDepth: 3, Sent: 7})
	tb.Add(Sample{Round: 1, Wall: 2_000_000, PE: 1, Instrs: 40, Misses: 2})
	var buf bytes.Buffer
	if err := WriteTimelineCSV(&buf, tb.Done()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want header + 2 rows:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "round,pe,wall_ms") {
		t.Fatalf("bad header: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,0,2.000,50,3,") {
		t.Fatalf("bad row: %q", lines[1])
	}
}

func TestFormatTail(t *testing.T) {
	r := New(8, 1)
	fixed(r)
	r.Record(EvStealReq, 5, 1, 0)
	r.Record(EvRebound, 6, 2, 0)
	r.Record(EvProbe, 7, 9, 1)
	s := FormatTail(r.Events(), 2)
	if strings.Contains(s, "steal.req") {
		t.Fatalf("tail of 2 must drop the oldest event:\n%s", s)
	}
	if !strings.Contains(s, "rebound") || !strings.Contains(s, "probe") {
		t.Fatalf("tail missing expected events:\n%s", s)
	}
	if got := FormatTail(nil, 4); !strings.Contains(got, "no trace events") {
		t.Fatalf("empty tail: %q", got)
	}
}
