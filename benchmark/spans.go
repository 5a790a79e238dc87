package main

import "time"

// span is one timed call into a layer made by the replay.
type span struct {
	name   string
	detail string // the algorithm, on sched.solve spans
	trace  int    // the replayed request this span belongs to
	parent int    // index of the enclosing span, -1 for a request's root
	start  time.Duration
	end    time.Duration
}

// tracer records the replay's spans in memory. The replay runs on one
// goroutine, so open spans form a stack. A tracer that is off records
// nothing and reads no clock: the replay timed with it is the baseline
// of trace.overhead_pct.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
	open   []int
	trace  int
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: time.Now()} }

// request starts the root span of the next replayed request; kind
// names it.
func (t *tracer) request(kind string) int {
	t.trace++
	return t.begin(kind)
}

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, trace: t.trace, parent: parent, start: time.Since(t.origin)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
}

// detail annotates an open span.
func (t *tracer) detail(id int, s string) {
	if id >= 0 {
		t.spans[id].detail = s
	}
}

// layerTime is one span name's aggregate self time.
type layerTime struct {
	self  time.Duration
	calls int
}

func (l layerTime) meanMS() float64 {
	if l.calls == 0 {
		return 0
	}
	return l.self.Seconds() * 1e3 / float64(l.calls)
}

// profile sums self time — a span's duration minus the part its
// children cover — by span name, and by name.detail where a detail
// was set. inner[i] is the time span i's children cover; for a root,
// that is the time the request spent inside layers.
func (t *tracer) profile() (byName map[string]layerTime, inner []time.Duration) {
	inner = make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			inner[s.parent] += s.end - s.start
		}
	}
	byName = make(map[string]layerTime)
	add := func(name string, d time.Duration) {
		l := byName[name]
		l.self += d
		l.calls++
		byName[name] = l
	}
	for i, s := range t.spans {
		self := s.end - s.start - inner[i]
		add(s.name, self)
		if s.detail != "" {
			add(s.name+"."+s.detail, self)
		}
	}
	return byName, inner
}

// chromeEvent is one Chrome trace_event record; ts and dur are
// microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chrome renders the spans as trace_event records of one process:
// each replayed request is its own lane, and the spans in a lane nest.
func (t *tracer) chrome(process string, pid int) []chromeEvent {
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": process}}}
	for _, s := range t.spans {
		args := map[string]any{"trace_id": s.trace}
		if s.parent >= 0 {
			args["parent"] = t.spans[s.parent].name
		}
		if s.detail != "" {
			args["detail"] = s.detail
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Pid: pid, Tid: s.trace,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	return events
}
