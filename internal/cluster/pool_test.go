//go:build !race

package cluster

import (
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
