package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// chromeEvent is one entry of the Chrome trace_event JSON array format
// (the "JSON Array Format" Perfetto and chrome://tracing both load).
// Timestamps and durations are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome renders the trace as Chrome trace_event JSON. Each PE becomes
// one thread (tid = PE) of process 0. Sampled SP executions become "X"
// complete slices by pairing each sp.complete with that SP's most recent
// dispatch on the same PE; everything else — steals, page traffic, rebounds,
// probes, and dispatches that never completed inside the ring —
// becomes an instant. Timeline samples, when present, add per-PE counter
// tracks (instrs/round and queue depth). name, when non-nil, maps a template
// id to a label for SP slices; otherwise slices are named "sp/<tmpl>".
func WriteChrome(w io.Writer, t *Trace, name func(tmpl int64) string) error {
	// Normalize timestamps to the earliest wall stamp anywhere in the trace
	// so the viewer opens at t≈0 instead of the Unix epoch.
	var t0 int64
	first := true
	seen := func(wall int64) {
		if wall != 0 && (first || wall < t0) {
			t0, first = wall, false
		}
	}
	for pe := range t.PEs {
		for i := range t.PEs[pe].Events {
			seen(t.PEs[pe].Events[i].Wall)
		}
	}
	if t.Timeline != nil {
		for i := range t.Timeline.Samples {
			seen(t.Timeline.Samples[i].Wall)
		}
	}
	us := func(wall int64) float64 { return float64(wall-t0) / 1e3 }

	spName := func(tmpl int64) string {
		if name != nil {
			if s := name(tmpl); s != "" {
				return s
			}
		}
		return fmt.Sprintf("sp/%d", tmpl)
	}

	var out []chromeEvent
	for pe := range t.PEs {
		out = append(out, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 0, TID: pe,
			Args: map[string]any{"name": fmt.Sprintf("PE %d", pe)},
		})
		// Pair complete events with the latest open dispatch per SP id.
		open := map[int64]Event{}
		for _, e := range t.PEs[pe].Events {
			switch e.Kind {
			case EvSPDispatch:
				if prev, ok := open[e.Arg0]; ok {
					// Re-dispatch without an observed completion (the
					// completion fell out of the ring): keep the record as
					// an instant so nothing is silently lost.
					out = append(out, instant(prev, pe, spName))
				}
				open[e.Arg0] = e
			case EvSPComplete:
				d, ok := open[e.Arg0]
				if !ok {
					out = append(out, instant(e, pe, spName))
					continue
				}
				delete(open, e.Arg0)
				out = append(out, chromeEvent{
					Name: spName(e.Arg1), Ph: "X", TS: us(d.Wall),
					Dur: max(us(e.Wall)-us(d.Wall), 0.001), PID: 0, TID: pe,
					Args: map[string]any{"sp": e.Arg0, "instrs": e.Instr - d.Instr},
				})
			default:
				out = append(out, instant(e, pe, spName))
			}
		}
		// Dispatches still open at gather time (e.g. a stall dump).
		for _, e := range open {
			out = append(out, instant(e, pe, spName))
		}
	}
	if t.Timeline != nil {
		for _, s := range t.Timeline.Samples {
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("PE %d instrs/round", s.PE), Ph: "C",
				TS: us(s.Wall), PID: 0, TID: s.PE,
				Args: map[string]any{"instrs": s.Instrs},
			}, chromeEvent{
				Name: fmt.Sprintf("PE %d queue depth", s.PE), Ph: "C",
				TS: us(s.Wall), PID: 0, TID: s.PE,
				Args: map[string]any{"ready": s.QDepth},
			})
		}
	}
	// Instants patched above reference the un-normalized wall stamp; fix
	// them all in one pass (metadata events keep ts 0).
	for i := range out {
		if out[i].Ph == "i" {
			out[i].TS = us(int64(out[i].TS))
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// instant renders a non-slice event. The wall stamp is stored raw in TS and
// normalized by the caller in a final pass.
func instant(e Event, pe int, spName func(int64) string) chromeEvent {
	c := chromeEvent{Ph: "i", TS: float64(e.Wall), PID: 0, TID: pe, S: "t",
		Args: map[string]any{"instr": e.Instr}}
	switch e.Kind {
	case EvSPDispatch, EvSPComplete:
		c.Name = e.Kind.String() + " " + spName(e.Arg1)
		c.Args["sp"] = e.Arg0
	case EvStealReq, EvStealNone:
		c.Name = e.Kind.String()
		c.Args["victim"] = e.Arg0
	case EvStealGrant:
		c.Name = e.Kind.String()
		c.Args["thief"], c.Args["sps"] = e.Arg0, e.Arg1
	case EvStealIn:
		c.Name = e.Kind.String()
		c.Args["from"], c.Args["sps"] = e.Arg0, e.Arg1
	case EvPageFetch, EvPageEvict:
		c.Name = e.Kind.String()
		c.Args["array"], c.Args["page"] = e.Arg0, e.Arg1
	case EvRebound:
		c.Name = e.Kind.String()
		c.Args["tmpl"] = e.Arg0
	case EvProbe:
		c.Name = e.Kind.String()
		c.Args["round"], c.Args["ready"] = e.Arg0, e.Arg1
	default:
		c.Name = e.Kind.String()
		c.Args["arg0"], c.Args["arg1"] = e.Arg0, e.Arg1
	}
	return c
}

// WriteTimelineCSV renders the per-round metrics timeline as CSV, one row
// per (round, PE): wall offset in milliseconds, instruction and message
// deltas, instantaneous queue/live depth, and cache/steal activity.
func WriteTimelineCSV(w io.Writer, tl *Timeline) error {
	if _, err := fmt.Fprintln(w, "round,pe,wall_ms,instrs,qdepth,live,sent,hits,misses,evicts,steals"); err != nil {
		return err
	}
	for _, s := range tl.Samples {
		_, err := fmt.Fprintf(w, "%d,%d,%.3f,%d,%d,%d,%d,%d,%d,%d,%d\n",
			s.Round, s.PE, float64(s.Wall)/1e6, s.Instrs, s.QDepth, s.Live,
			s.Sent, s.Hits, s.Misses, s.Evicts, s.Steals)
		if err != nil {
			return err
		}
	}
	return nil
}

// FormatTail renders a PE's last n events as one human-readable line each —
// the shape the driver's stall diagnostics embed in a stalled round's error.
func FormatTail(evs []Event, n int) string {
	if len(evs) == 0 {
		return "    (no trace events)"
	}
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	t0 := evs[0].Wall
	var b strings.Builder
	for i, e := range evs {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "    +%8.3fms instr=%-8d %-12s args=%d,%d",
			float64(e.Wall-t0)/1e6, e.Instr, e.Kind.String(), e.Arg0, e.Arg1)
	}
	return b.String()
}
