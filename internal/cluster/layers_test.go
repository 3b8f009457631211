package cluster

import (
	"strings"
	"testing"

	"repro/internal/isa"
)

// TestOffLayerFramesFailCleanly: every PE of a job shares one Config, so a
// worker never legitimately receives a frame of a layer its job left off —
// but a hostile TCP peer can send one. For each layer, a worker with that
// layer off and every other one on must answer each of the layer's kinds
// with an "unexpected … message" KFail: never a panic (the layer's state is
// nil), and never the frame's effect.
func TestOffLayerFramesFailCleanly(t *testing.T) {
	stealKinds := []func() *Msg{
		func() *Msg { return &Msg{Kind: KStealReq, Lists: &MsgLists{HotPages: []int64{1, 0}}} },
		func() *Msg {
			return &Msg{Kind: KStealGrant, Seq: 1, Lists: &MsgLists{Batch: []StealItem{
				{SP: packID(1, 1), Tmpl: 0, CostLoop: -1, Args: make([]isa.Value, 4)}}}}
		},
		func() *Msg { return &Msg{Kind: KStealNone} },
		func() *Msg { return &Msg{Kind: KStealDone, SP: packID(0, 1)} },
	}
	recoverKinds := []func() *Msg{
		func() *Msg { return &Msg{Kind: KCkpt, Seq: 1, Lists: &MsgLists{Iters: []int64{7}}} },
		func() *Msg { return &Msg{Kind: KCkptMark, Seq: 1} },
		func() *Msg { return &Msg{Kind: KCkptOK, Seq: 1, Lists: &MsgLists{Iters: []int64{7}}} },
		func() *Msg { return &Msg{Kind: KRecover, From: 2, Cfg: &MsgCfg{Incs: []int32{0, 1}}} },
		func() *Msg { return &Msg{Kind: KFlush} },
		// Without recovery no grant is ever logged, so no completion notice
		// is ever sent either.
		func() *Msg { return &Msg{Kind: KStealDone, SP: packID(0, 1)} },
	}
	for _, layer := range []struct {
		name  string
		cfg   Config // every knob on but the layer's own
		kinds []func() *Msg
	}{
		{"steal", Config{Adapt: true, Heat: true, Recover: true}, stealKinds},
		{"adapt", Config{Steal: true, Heat: true, Recover: true}, []func() *Msg{
			func() *Msg { return &Msg{Kind: KRebound, Tmpl: 0, Lists: &MsgLists{Cuts: []int64{3}}} },
		}},
		{"recover", Config{Steal: true, Adapt: true, Heat: true}, recoverKinds},
	} {
		for _, mk := range layer.kinds {
			m := mk()
			t.Run(layer.name+"-off/"+m.Kind.String(), func(t *testing.T) {
				eps := newChanTransport(2, 0)
				cfg := layer.cfg
				cfg.NumPEs, cfg.PageElems, cfg.DistThreshold = 2, 8, 16
				w := newWorker(0, &cfg, taskProgram(), eps[0])
				if cfg.Recover {
					w.enableRecovery(0, 0, nil)
				}
				if m.From == 0 {
					m.From = 1 // a peer's frame
				}
				w.handle(m)
				got, ok := eps[2].TryRecv()
				if want := "unexpected " + m.Kind.String() + " message"; !ok || got.Kind != KFail || !strings.Contains(got.Name, want) {
					t.Fatalf("got %+v, want a KFail %q", got, want)
				}
				if w.epoch != 0 || len(w.insts) != 0 {
					t.Fatalf("the frame took effect: epoch %d, %d live SPs", w.epoch, len(w.insts))
				}
				if extra, ok := eps[1].TryRecv(); ok {
					t.Fatalf("the worker answered the peer with a %v", extra.Kind)
				}
			})
		}
	}
}
