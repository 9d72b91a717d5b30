package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"adafl/internal/compress"
	"adafl/internal/fl"
)

// span is one timed call at a layer boundary. Times are seconds since the
// tracer's origin; parent is -1 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Run    string  `json:"run"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil through the same code.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	run    string
	spans  []span
}

func newTracer(run string) *tracer {
	return &tracer{origin: time.Now(), run: run}
}

func (t *tracer) since(at time.Time) float64 { return at.Sub(t.origin).Seconds() }

// add records a finished span and returns its id (-1 on a nil tracer).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: t.since(start), End: t.since(end), Run: t.run})
	return id
}

// open records a span whose end is filled in by close; use it for a
// parent whose children are recorded while it runs.
func (t *tracer) open(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	return t.add(name, parent, now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// durations returns the durations (seconds) of every span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// unexplainedFrac is the share of lane time not covered by child spans.
// A lane is a span that runs its children one after another (a round
// loop, one client's request loop); every span with children below a
// lane, the lane included, contributes the part of its interval its
// children do not cover. Leaves are layer calls and count as explained.
// The result is that self time over the summed lane durations.
func unexplainedFrac(spans []span, lane string) float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var self func(s span) float64
	self = func(s span) float64 {
		kids := children[s.ID]
		if len(kids) == 0 {
			return 0
		}
		t := s.dur() - covered(s, kids)
		for _, k := range kids {
			t += self(k)
		}
		return t
	}
	var gap, total float64
	for _, s := range spans {
		if s.Name == lane {
			gap += self(s)
			total += s.dur()
		}
	}
	if total <= 0 {
		return 0
	}
	return gap / total
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) float64 {
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	t, curLo, curHi := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				t += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi > curLo {
		t += curHi - curLo
	}
	return t
}

// roundScope carries the span id of the engine call in progress to the
// wrappers the engine calls back into, possibly from client goroutines.
type roundScope struct {
	parent  atomic.Int64
	planEnd atomic.Int64 // UnixNano when the planner returned
}

// tracedPlanner records each fl.RoundPlanner.Plan call.
type tracedPlanner struct {
	inner fl.RoundPlanner
	tr    *tracer
	scope *roundScope
}

func (p *tracedPlanner) Plan(round int, e *fl.SyncEngine) []fl.Participation {
	start := time.Now()
	out := p.inner.Plan(round, e)
	end := time.Now()
	p.tr.add("core.plan", int(p.scope.parent.Load()), start, end)
	p.scope.planEnd.Store(end.UnixNano())
	return out
}

// tracedAggregator records each fl.Aggregator.Apply call, and the client
// phase that precedes it: from the planner's return to the aggregation.
type tracedAggregator struct {
	inner fl.Aggregator
	tr    *tracer
	scope *roundScope
}

func (a *tracedAggregator) Name() string { return a.inner.Name() }

func (a *tracedAggregator) Apply(global []float64, updates []fl.Update) {
	start := time.Now()
	parent := int(a.scope.parent.Load())
	if pe := a.scope.planEnd.Load(); pe != 0 {
		a.tr.add("fl.client_phase", parent, time.Unix(0, pe), start)
	}
	a.inner.Apply(global, updates)
	a.tr.add("fl.aggregate", parent, start, time.Now())
}

// tracedCodec records each compress.Codec.Encode call.
type tracedCodec struct {
	inner compress.Codec
	tr    *tracer
	scope *roundScope
}

func (c *tracedCodec) Name() string { return c.inner.Name() }
func (c *tracedCodec) Reset()       { c.inner.Reset() }

func (c *tracedCodec) Encode(grad []float64, ratio float64) *compress.Sparse {
	start := time.Now()
	out := c.inner.Encode(grad, ratio)
	c.tr.add("compress.encode", int(c.scope.parent.Load()), start, time.Now())
	return out
}

func runID(workload string, seed uint64) string {
	return fmt.Sprintf("%s-%d-%d", workload, seed, time.Now().UnixNano())
}
