package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Times are nanoseconds since the tracer
// started; Parent is -1 for a root span. Lane names the load generator
// (a sensor, say) that made the call.
type span struct {
	ID     int
	Parent int
	Lane   int
	Name   string
	Start  int64
	End    int64
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and never reads the clock, so untraced runs pay one
// branch per call site.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent, lane int) int {
	if !t.on {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Lane: lane, Name: name, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// endAt closes a span at a time taken elsewhere (for instance when a
// callback on another goroutine observed the completion).
func (t *tracer) endAt(id int, at time.Time) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = max(int64(at.Sub(t.t0)), t.spans[id].Start)
	t.mu.Unlock()
}

// add records a span whose bounds were taken elsewhere (for instance a
// wait that starts in one goroutine and ends in another).
func (t *tracer) add(name string, parent, lane int, start, end time.Time) int {
	if !t.on {
		return -1
	}
	if end.Before(start) {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Lane: lane, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations in ms of every span with the name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// selfTimes returns, for every span with the name, its self time in ms.
func selfTimes(spans []span, name string) []float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(selfTime(s, children[s.ID]))/1e6)
		}
	}
	return out
}

// writeChromeTrace writes spans in the Chrome trace-event format
// (loadable in Perfetto or chrome://tracing), one row per lane.
func writeChromeTrace(path string, spans []span, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Lane,
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "otherData": meta})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
