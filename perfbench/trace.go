package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// span is one timed interval of a traced run: an op, a call into one
// layer of the program, or a correctness check. Spans of one op share
// its op id; parent is the index of the enclosing span, or -1.
type span struct {
	name           string
	op             int32
	parent         int32
	start, end     int64  // ns since the tracer's epoch
	allocB, allocN uint64 // heap bytes and objects allocated inside the span
}

// tracer keeps spans in memory and writes them out when the run ends,
// so recording costs two clock reads and two allocation-counter reads
// per span.
type tracer struct {
	epoch  time.Time
	spans  []span
	open   []int32 // stack of open span indices
	op     int32   // id of the op being recorded, -1 outside ops
	counts map[string]float64
	heap   heapCounter
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), op: -1, counts: map[string]float64{}, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name string) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	b, n := t.heap.read()
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, allocB: b, allocN: n,
		start: int64(time.Since(t.epoch))})
	i := int32(len(t.spans) - 1)
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32) {
	s := &t.spans[i]
	s.end = int64(time.Since(t.epoch))
	b, n := t.heap.read()
	s.allocB, s.allocN = b-s.allocB, n-s.allocN
	t.open = t.open[:len(t.open)-1]
}

// heapCounter reads the runtime's cumulative heap allocation counters
// without stopping the world (unlike runtime.ReadMemStats).
type heapCounter struct{ s [2]metrics.Sample }

func (h *heapCounter) read() (bytes, objects uint64) {
	if h.s[0].Name == "" {
		h.s[0].Name = "/gc/heap/allocs:bytes"
		h.s[1].Name = "/gc/heap/allocs:objects"
	}
	metrics.Read(h.s[:])
	return h.s[0].Value.Uint64(), h.s[1].Value.Uint64()
}

// layerTotal sums the durations and allocations of the spans of one
// name.
type layerTotal struct {
	ns             int64
	allocB, allocN uint64
}

func (t *tracer) totals() map[string]*layerTotal {
	out := map[string]*layerTotal{}
	for _, s := range t.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.name] = lt
		}
		lt.ns += s.end - s.start
		lt.allocB += s.allocB
		lt.allocN += s.allocN
	}
	return out
}

// opAccounting splits the op spans: total op time net of the checks
// recorded inside them, the time their layer-call children cover, and
// the harness's own share (op minus all children).
func (t *tracer) opAccounting() (opNet, layers, self int64) {
	child := make([]int64, len(t.spans))
	checks := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent < 0 || t.spans[s.parent].name != spanOp {
			continue
		}
		d := s.end - s.start
		child[s.parent] += d
		if s.name == spanCheck {
			checks[s.parent] += d
		} else {
			layers += d
		}
	}
	for i, s := range t.spans {
		if s.name != spanOp {
			continue
		}
		d := s.end - s.start
		opNet += d - checks[i]
		self += d - child[i]
	}
	return opNet, layers, self
}

// writeChrome writes the spans as a Chrome trace-event file, which
// chrome://tracing and Perfetto open directly.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	enc := json.NewEncoder(w)
	fmt.Fprint(w, `{"traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		if err := enc.Encode(event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1, Args: map[string]any{"op": s.op, "parent": s.parent, "alloc_bytes": s.allocB, "allocs": s.allocN}}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
