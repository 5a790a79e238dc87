package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// traceEvent is one Chrome trace_event record. Only "X" (complete)
// and "M" (metadata) phases are emitted; ts/dur are microseconds, the
// format's native unit.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceEventFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// WriteTraceEvent renders the snapshot as Chrome trace_event JSON,
// loadable in chrome://tracing and Perfetto. Nested spans share their
// parent's lane (tid); concurrent siblings — batch configs, parallel
// field-fill shards — get separate lanes so they draw side by side
// instead of overlapping, which the format would reject.
func (s *TraceSnapshot) WriteTraceEvent(w io.Writer) error {
	n := len(s.Spans)
	// Sort by start (ties: longer first, so parents precede children
	// that started the same microsecond).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := s.Spans[order[a]], s.Spans[order[b]]
		if sa.StartUS != sb.StartUS {
			return sa.StartUS < sb.StartUS
		}
		return sa.DurUS > sb.DurUS
	})

	byID := make(map[int32]int, n)
	for i, sp := range s.Spans {
		byID[sp.ID] = i
	}
	end := func(i int) float64 { return s.Spans[i].StartUS + s.Spans[i].DurUS }
	// ancestor reports whether span a is a (transitive) parent of b.
	ancestor := func(a, b int) bool {
		for hops := 0; hops < n; hops++ {
			p := s.Spans[b].Parent
			if p == 0 {
				return false
			}
			pb, ok := byID[p]
			if !ok {
				return false
			}
			if pb == a {
				return true
			}
			b = pb
		}
		return false
	}

	// Greedy lane assignment. Each lane keeps a stack of open spans;
	// a span fits a lane if, after retiring spans that ended before it
	// starts, the lane is empty or its top is an ancestor that outlives
	// it. Its parent's lane is preferred, so call trees stay visually
	// contiguous.
	lane := make([]int, n)
	var stacks [][]int
	fits := func(l, i int) bool {
		st := stacks[l]
		for len(st) > 0 && end(st[len(st)-1]) <= s.Spans[i].StartUS {
			st = st[:len(st)-1]
		}
		stacks[l] = st
		if len(st) == 0 {
			return true
		}
		top := st[len(st)-1]
		return ancestor(top, i) && end(top) >= end(i)
	}
	for _, i := range order {
		l := -1
		if p, ok := byID[s.Spans[i].Parent]; ok && s.Spans[i].Parent != 0 {
			if pl := lane[p]; fits(pl, i) {
				l = pl
			}
		}
		if l < 0 {
			for cand := range stacks {
				if fits(cand, i) {
					l = cand
					break
				}
			}
		}
		if l < 0 {
			stacks = append(stacks, nil)
			l = len(stacks) - 1
		}
		lane[i] = l
		stacks[l] = append(stacks[l], i)
	}

	base := float64(s.Start.UnixMicro())
	events := make([]traceEvent, 0, n+len(stacks)+1)
	events = append(events, traceEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": fmt.Sprintf("%s (%s)", s.Name, s.TraceID)},
	})
	for l := range stacks {
		name := "request"
		if l > 0 {
			name = fmt.Sprintf("concurrent-%d", l)
		}
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: l,
			Args: map[string]any{"name": name},
		})
	}
	for i, sp := range s.Spans {
		dur := sp.DurUS
		ev := traceEvent{
			Name: sp.Name,
			Ph:   "X",
			Ts:   base + sp.StartUS,
			Dur:  &dur,
			Pid:  1,
			Tid:  lane[i],
		}
		if len(sp.Attrs) > 0 || sp.ID == 1 {
			args := make(map[string]any, len(sp.Attrs)+2)
			for k, v := range sp.Attrs {
				args[k] = v
			}
			if sp.ID == 1 {
				args["trace_id"] = s.TraceID
				if s.Status != 0 {
					args["status"] = s.Status
				}
				if s.Outlier != "" {
					args["outlier"] = s.Outlier
				}
				if s.DroppedSpans > 0 {
					args["dropped_spans"] = s.DroppedSpans
				}
				if s.DroppedAttrs > 0 {
					args["dropped_attrs"] = s.DroppedAttrs
				}
			}
			ev.Args = args
		}
		events = append(events, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceEventFile{DisplayTimeUnit: "ms", TraceEvents: events})
}
