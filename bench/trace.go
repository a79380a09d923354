package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one call the harness made into a layer.
type span struct {
	layer, name string
	start, end  time.Duration // since the recorder's epoch
	parent      int           // index of the enclosing span, -1 at the top
	rep         int           // op the span belongs to; -1 for set-up
	workload    int
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how untraced runs call the same code.
type recorder struct {
	epoch    time.Time
	spans    []span
	open     int // innermost open span, -1 when none
	workload int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), open: -1} }

func (r *recorder) begin(layer, name string, rep int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{layer: layer, name: name, start: time.Since(r.epoch),
		parent: r.open, rep: rep, workload: r.workload})
	r.open = len(r.spans) - 1
	return r.open
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].end = time.Since(r.epoch)
	r.open = r.spans[id].parent
}

// seconds returns the durations of the current workload's finished spans
// with this name.
func (r *recorder) seconds(name string) []float64 {
	var out []float64
	if r == nil {
		return out
	}
	for _, s := range r.spans {
		if s.name == name && s.workload == r.workload && s.end > 0 {
			out = append(out, (s.end - s.start).Seconds())
		}
	}
	return out
}

// write emits the spans as Chrome trace-event JSON (Perfetto opens it): one
// complete event per span, one track per workload.
func (r *recorder) write(path string, workloads []string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"` // microseconds
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := make([]event, 0, len(r.spans)+len(workloads))
	for i, w := range workloads {
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: i, Args: map[string]any{"name": w}})
	}
	for i, s := range r.spans {
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X", Pid: 1, Tid: s.workload,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]any{"id": i, "parent": s.parent, "rep": s.rep},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
