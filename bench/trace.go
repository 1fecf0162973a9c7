package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the traced run recorded around a public entry
// point of a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // zero for a root
	Trace  string `json:"trace"`            // shared by the spans of one sweep, tick or mutation
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // End-Start minus the union of the children's intervals
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil through the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span id, so children can name a parent that is still
// running. Safe for concurrent use; zero on a nil tracer.
func (t *tracer) newID() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span under a reserved id.
func (t *tracer) add(id int, name string, parent int, trace string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// record reserves an id and records a finished span in one step.
func (t *tracer) record(name string, parent int, trace string, start, end time.Time) {
	t.add(t.newID(), name, parent, trace, start, end)
}

// withSelfTimes returns the spans with Self filled in: each span's
// duration minus the part of its interval that its children cover.
// Children may overlap each other (parallel lanes, shards) or run past
// the parent (an SSE delivery outlives the tick that produced it); only
// the covered part of the parent's own interval is subtracted.
func withSelfTimes(spans []span) []span {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := append([]span(nil), spans...)
	for i := range out {
		out[i].Self = out[i].End - out[i].Start - covered(out[i], children[out[i].ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// write saves the spans, with self times, as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := withSelfTimes(t.spans)
	t.mu.Unlock()
	data, err := json.Marshal(struct {
		Epoch time.Time `json:"epoch"`
		Spans []span    `json:"spans"`
	}{t.epoch, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
