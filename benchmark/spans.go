package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary: the harness opens one
// around every call into a layer of the system. parent is the span that
// caused it (-1 for the root); client groups the spans of one request
// stream (serve_mix jobs of one client share it).
type span struct {
	name       string
	parent     int
	client     int
	start, end time.Duration // since the recorder's origin
}

// spanRec keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced pass runs the same call sites at no cost.
type spanRec struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanRec() *spanRec { return &spanRec{origin: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (r *spanRec) begin(parent, client int, name string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, parent: parent, client: client, start: now, end: -1})
	return len(r.spans) - 1
}

func (r *spanRec) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.origin)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover (children of concurrent clients overlap, so the
// cover is a union, not a sum).
func (r *spanRec) selfTimes() []time.Duration {
	kids := make(map[int][]int)
	for i, s := range r.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return r.spans[ks[a]].start < r.spans[ks[b]].start })
		var covered time.Duration
		at := s.start
		for _, k := range ks {
			lo, hi := max(r.spans[k].start, at), min(r.spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// harnessSelf sums the self time of the spans that are the harness's own
// (those with children are harness scopes; leaves are layer calls).
func (r *spanRec) harnessSelf() time.Duration {
	hasKid := make(map[int]bool)
	for _, s := range r.spans {
		hasKid[s.parent] = true
	}
	var sum time.Duration
	for i, d := range r.selfTimes() {
		if hasKid[i] {
			sum += d
		}
	}
	return sum
}

// writeChrome writes the spans as Chrome trace_event JSON ("X" complete
// events; one track per client), loadable at ui.perfetto.dev.
func (r *spanRec) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	self := r.selfTimes()
	evs := make([]event, len(r.spans))
	for i, s := range r.spans {
		evs[i] = event{
			Name: s.name, Ph: "X", Tid: s.client, Ts: us(s.start), Dur: us(s.end - s.start),
			Args: map[string]any{"id": i, "parent": s.parent, "self_us": us(self[i])},
		}
	}
	data, err := json.Marshal(evs)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
