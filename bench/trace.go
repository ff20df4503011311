package main

// span is one timed interval at a layer boundary: a pass (root span,
// Parent == 0) or one harness call into a layer's public API.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil tracer, or one that is switched
// off, records nothing and reads no clock, so the untraced passes of a
// traced run and the end-to-end runs pay one nil/flag check per call.
type tracer struct {
	workload string
	on       bool
	spans    []span
	open     []int // stack of open span IDs
}

// begin opens a span under the innermost open one and returns its ID
// (0 when tracing is off; end ignores 0).
func (t *tracer) begin(layer, name string) int {
	if t == nil || !t.on {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Workload: t.workload,
		Layer: layer, Name: name, StartNS: nowNS(),
	})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned. Spans close innermost first.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].EndNS = nowNS()
	t.open = t.open[:len(t.open)-1]
}
