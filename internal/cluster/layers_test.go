package cluster

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// TestOffLayerFramesFailCleanly: every PE of a job shares one Config, so a
// worker never legitimately receives a frame of a layer its job left off —
// but a hostile TCP peer can send one. For each layer, a worker with that
// layer off and every other one on must answer each of the layer's kinds with an "unexpected …
// message" KFail: never a panic (the layer's state is nil), and never the
// frame's effect.
func TestOffLayerFramesFailCleanly(t *testing.T) {
	stealKinds := []func() *Msg{
		func() *Msg { return &Msg{Kind: KStealReq, Lists: &MsgLists{HotPages: []int64{1, 0}}} },
		func() *Msg {
			return &Msg{Kind: KStealGrant, Lists: &MsgLists{Batch: []StealItem{
				{SP: packID(1, 1), Tmpl: 0, CostLoop: -1, Args: make([]isa.Value, 4)}}}}
		},
		func() *Msg { return &Msg{Kind: KStealNone} },
	}
	for _, layer := range []struct {
		name  string
		cfg   Config // the other knobs on
		kinds []func() *Msg
	}{
		{"steal", Config{Adapt: true, Heat: true}, stealKinds},
		{"adapt", Config{Steal: true, Heat: true}, []func() *Msg{
			func() *Msg { return &Msg{Kind: KRebound, Tmpl: 0, Lists: &MsgLists{Cuts: []int64{3}}} },
		}},
	} {
		for _, mk := range layer.kinds {
			m := mk()
			t.Run(layer.name+"-off/"+m.Kind.String(), func(t *testing.T) {
				eps := newChanTransport(2, 0)
				cfg := layer.cfg
				cfg.NumPEs, cfg.PageElems = 2, 8
				w := newWorker(0, &cfg, taskProgram(), eps[0])
				if m.From == 0 {
					m.From = 1 // a peer's frame
				}
				w.handle(m)
				got, ok := eps[2].in.tryRecv()
				if want := "unexpected " + m.Kind.String() + " message"; !ok || got.Kind != KFail || !strings.Contains(got.Name, want) {
					t.Fatalf("got %+v, want a KFail %q", got, want)
				}
				if len(w.insts) != 0 {
					t.Fatalf("the frame took effect: %d live SPs", len(w.insts))
				}
				if extra, ok := eps[1].in.tryRecv(); ok {
					t.Fatalf("the worker answered the peer with a %v", extra.Kind)
				}
			})
		}
	}
}
