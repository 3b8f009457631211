//go:build !race

package cluster

import (
	"context"
	"testing"

	"repro/internal/isa"
	"repro/internal/istructure"
)

// TestHotFramesAllocFree: once two channel workers are warm, the data
// plane's frames cost no allocation. A remote KWrite, a KReadReq→KPage
// round trip and a KToken each go from the sending worker's own send path
// to the receiver's handle, which releases the frame for the next send.
// Under the race detector sync.Pool drops items at random, so the guard
// runs only without it.
func TestHotFramesAllocFree(t *testing.T) {
	const elems = 1024 // PE 1 owns [512, 1024): a fresh element for every KWrite run
	eps := newChanTransport(2, 0)
	cfg := Config{NumPEs: 2, PageElems: 8}
	ws := []*worker{newWorker(0, &cfg, taskProgram(), eps[0]), newWorker(1, &cfg, taskProgram(), eps[1])}
	h, err := istructure.NewHeader(packID(1, 1), "A", []int{elems}, cfg.PageElems, 2, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		w.installArray(h)
	}
	// drain hands every frame queued for w to its handler, as the run loop
	// does.
	drain := func(w *worker) {
		for {
			m, ok := w.ep.in.tryRecv()
			if !ok {
				return
			}
			w.handle(m)
		}
	}
	reader := ws[0].instantiate(ws[0].prog.Template(0), make([]isa.Value, 2))
	target := ws[1].instantiate(ws[1].prog.Template(0), make([]isa.Value, 2))
	const page = elems - 8 // a full page of PE 1's
	for off := page; off < elems; off++ {
		ws[1].ownerWrite(ws[1].shard.Array(h.ID), off, isa.Float(float64(off)))
	}

	next := elems / 2
	for _, tc := range []struct {
		name   string
		frames int
		run    func()
	}{
		{"write", 1, func() {
			ws[0].send(1, newMsg(Msg{Kind: KWrite, Arr: h.ID, Off: int32(next), Val: isa.Float(1)}))
			next++
			drain(ws[1])
		}},
		{"readReq+page", 2, func() {
			ws[0].readReq(h, page, reader.id, 2)
			drain(ws[1])
			drain(ws[0])
		}},
		{"token", 1, func() {
			ws[0].route(target.id, 2, isa.Float(1))
			drain(ws[1])
		}},
	} {
		if allocs := testing.AllocsPerRun(100, tc.run); allocs != 0 {
			t.Errorf("%s: %.0f allocations per run of %d frames, want 0", tc.name, allocs, tc.frames)
		}
	}
	for _, w := range ws {
		if w.failed {
			t.Fatalf("pe %d failed", w.pe)
		}
	}
	if got := reader.frame[2]; got != isa.Float(page) {
		t.Fatalf("the page delivered %v to the reader, want %v", got, isa.Float(page))
	}
	if v, present := ws[1].shard.Array(h.ID).Peek(next - 1); !present || v != isa.Float(1) {
		t.Fatalf("the last remote write left %v (present %v)", v, present)
	}
}

// TestJoinedReadAllocFree: a read that joins a page's in-flight request
// takes its waiters slice from the ones earlier pages drained, so once warm
// a miss, a join and the page that answers both allocate nothing. PE 0
// caches one page and reads two of PE 1's in turn, so every read misses.
func TestJoinedReadAllocFree(t *testing.T) {
	const elems = 1024 // PE 1 owns [512, 1024)
	eps := newChanTransport(2, 0)
	cfg := Config{NumPEs: 2, PageElems: 8, CachePages: 1}
	ws := []*worker{newWorker(0, &cfg, taskProgram(), eps[0]), newWorker(1, &cfg, taskProgram(), eps[1])}
	h, err := istructure.NewHeader(packID(1, 1), "A", []int{elems}, cfg.PageElems, 2, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		w.installArray(h)
	}
	for off := elems / 2; off < elems/2+2*cfg.PageElems; off++ {
		ws[1].ownerWrite(ws[1].shard.Array(h.ID), off, isa.Float(float64(off)))
	}
	drain := func(w *worker) {
		for {
			m, ok := w.ep.in.tryRecv()
			if !ok {
				return
			}
			w.handle(m)
		}
	}
	// reader: slot 0 holds the array, slot 1 the (1-based) index; the
	// leading read fills slot 2 and the joined one slot 3.
	reader := ws[0].instantiate(ws[0].prog.Template(0), []isa.Value{isa.Int(h.ID), isa.Int(0)})
	lead, join := &isa.DInstr{Op: isa.AREAD, A: 0, Dst: 2}, &isa.DInstr{Op: isa.AREAD, A: 0, Dst: 3}
	idx := []int{1}
	i := elems/2 + 1 // offset 512, the first of PE 1's elements
	run := func() {
		i ^= cfg.PageElems // the other page, evicted by this one
		reader.frame[1] = isa.Int(int64(i))
		ws[0].execRead(reader, lead, idx)
		ws[0].execRead(reader, join, idx)
		drain(ws[1])
		drain(ws[0])
	}
	joins := ws[0].joins
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("%.0f allocations per miss, join and page, want 0", allocs)
	}
	if ws[0].joins-joins != 101 {
		t.Fatalf("%d joins in 101 runs", ws[0].joins-joins)
	}
	for _, w := range ws {
		if w.failed {
			t.Fatalf("pe %d failed", w.pe)
		}
	}
	if want := isa.Float(float64(i - 1)); reader.frame[2] != want || reader.frame[3] != want {
		t.Fatalf("the page delivered %v and %v, want %v", reader.frame[2], reader.frame[3], want)
	}
}

// TestLoopbackRoundTripAllocFree: a frame sent over loopback TCP and echoed
// back costs no allocation once warm, alone or in a burst: its encoding
// goes into the outbox's buffer, the drainer starts without a closure, and
// the receiving pump decodes into a recycled frame.
func TestLoopbackRoundTripAllocFree(t *testing.T) {
	ep := benchLoopbackEcho(t)
	for _, burst := range []int{1, 16} {
		run := func() {
			for j := 0; j < burst; j++ {
				if err := ep.Send(0, newMsg(Msg{Kind: KToken, SP: int64(j), Slot: 1, Val: isa.Float(1)})); err != nil {
					t.Fatal(err)
				}
			}
			for j := 0; j < burst; j++ {
				m, err := ep.in.recv(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				releaseMsg(m)
			}
		}
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("burst of %d: %.1f allocations per round trip, want 0", burst, allocs)
		}
	}
}
