package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/coe"
	"repro/internal/pool"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Span names: one per layer seam the benchmark calls into.
const (
	spanSetup          = "setup"
	spanServe          = "core.serve"
	spanNewSystem      = "core.new_system"
	spanClusterNew     = "cluster.new"
	spanPlan           = "cluster.plan"
	spanPick           = "cluster.pick"
	spanNext           = "workload.next"
	spanVictims        = "pool.victims"
	spanProfilerMatrix = "profiler.matrix"
	spanProfilerSearch = "profiler.search"
)

// span is one timed call across a layer boundary. Times are
// nanoseconds since the tracer's epoch. parent indexes the tracer's
// main buffer (-1 for a root); req is the request ID for spans that
// carry one, -1 otherwise.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int64
}

func (s span) dur() int64 { return s.end - s.start }

// spanBuf is one goroutine's span store. Every wrapper owns its own
// buffer, so wrappers running on different kernel workers never share
// one; the tracer reads them only after the traced call has returned.
type spanBuf struct{ spans []span }

// tracer records spans in memory. Root and setup spans go to the main
// buffer from the benchmark's goroutine, which also tracks the open
// span that wrapper spans attach to. A nil *tracer records nothing.
type tracer struct {
	epoch time.Time
	main  spanBuf
	open  int32 // index in main of the innermost open span, -1 if none
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), open: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span on the main buffer under the innermost open one.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	t.main.spans = append(t.main.spans, span{name: name, start: t.now(), parent: t.open, req: -1})
	idx := int32(len(t.main.spans) - 1)
	t.open = idx
	return idx
}

// end closes the span begin returned.
func (t *tracer) end(idx int32) {
	if t == nil {
		return
	}
	s := &t.main.spans[idx]
	s.end = t.now()
	t.open = s.parent
}

// newBuf registers a buffer for one wrapper. Call it before the traced
// call starts, from the benchmark's goroutine.
func (t *tracer) newBuf() *spanBuf {
	b := &spanBuf{}
	t.bufs = append(t.bufs, b)
	return b
}

// forget drops every recorded span and unregisters every wrapper
// buffer, ready for a fresh set of wrappers.
func (t *tracer) forget() {
	t.main.spans = t.main.spans[:0]
	t.open = -1
	t.bufs = t.bufs[:0]
}

// all returns the main buffer's spans followed by every wrapper's.
func (t *tracer) all() []span {
	out := slices.Clone(t.main.spans)
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// layerTimes groups span durations by name, and computes each main
// span's self time: its duration minus the union of the intervals its
// children cover (children may overlap when node partitions run on
// parallel workers).
func layerTimes(spans []span, mainLen int) (durs map[string][]int64, self map[string]int64) {
	durs, self = map[string][]int64{}, map[string]int64{}
	children := make([][][2]int64, mainLen)
	for _, s := range spans {
		durs[s.name] = append(durs[s.name], s.dur())
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	for i, s := range spans[:mainLen] {
		self[s.name] += s.dur() - covered(children[i])
	}
	return durs, self
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var sum, lo, hi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= hi {
			if x[1] > hi {
				hi = x[1]
			}
			continue
		}
		if open {
			sum += hi - lo
		}
		lo, hi, open = x[0], x[1], true
	}
	if open {
		sum += hi - lo
	}
	return sum
}

// writeSpans writes the spans as Chrome trace-event JSON, one complete
// ("X") event per span with its parent and request in args.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	for i, s := range spans {
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"parent":%d,"req":%d}}`,
			s.name, float64(s.start)/1e3, float64(s.dur())/1e3, s.parent, s.req)
	}
	fmt.Fprint(w, "]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedRouter times Router.Pick and counts picks onto a node that
// already holds the request's expert. The cluster calls the router from
// its front-end partition only, so one instance per cluster suffices.
type tracedRouter struct {
	inner    cluster.Router
	t        *tracer
	buf      *spanBuf
	picks    int64
	resident int64
}

func (r *tracedRouter) Name() string { return r.inner.Name() }

func (r *tracedRouter) Pick(now sim.Time, nodes []*cluster.Node, req *coe.Request) int {
	start := r.t.now()
	idx := r.inner.Pick(now, nodes, req)
	r.buf.spans = append(r.buf.spans, span{name: spanPick, start: start, end: r.t.now(), parent: r.t.open, req: req.ID})
	r.picks++
	if idx >= 0 && idx < len(nodes) && nodes[idx].Resident(req.Expert()) {
		r.resident++
	}
	return idx
}

// tracedPlacement times Placement.Plan, which cluster.New calls from
// the benchmark's goroutine.
type tracedPlacement struct {
	inner cluster.Placement
	t     *tracer
}

func (p tracedPlacement) Name() string { return p.inner.Name() }

func (p tracedPlacement) Plan(m *coe.Model, nodes []cluster.NodeCapacity) ([][]coe.ExpertID, error) {
	idx := p.t.begin(spanPlan)
	defer p.t.end(idx)
	return p.inner.Plan(m, nodes)
}

// tracedPolicy times pool.Policy.Victims. Each node gets its own
// instance: the sharded kernel runs node partitions on parallel
// workers, and a node's pools all run on its partition.
type tracedPolicy struct {
	inner pool.Policy
	t     *tracer
	buf   *spanBuf
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Victims(pl *pool.Pool, need int64) []coe.ExpertID {
	start := p.t.now()
	out := p.inner.Victims(pl, need)
	p.buf.spans = append(p.buf.spans, span{name: spanVictims, start: start, end: p.t.now(), parent: p.t.open, req: -1})
	return out
}

// tracedSource times workload.Source.Next and forwards the optional
// Model and Unbounded methods the serving layer checks streams with.
type tracedSource struct {
	inner workload.Source
	t     *tracer
	buf   *spanBuf
}

func (s *tracedSource) Name() string { return s.inner.Name() }

func (s *tracedSource) Next() (workload.TimedRequest, bool) {
	start := s.t.now()
	tr, ok := s.inner.Next()
	id := int64(-1)
	if ok {
		id = tr.Req.ID
	}
	s.buf.spans = append(s.buf.spans, span{name: spanNext, start: start, end: s.t.now(), parent: s.t.open, req: id})
	return tr, ok
}

func (s *tracedSource) Model() *coe.Model { return sourceModel(s.inner) }

func (s *tracedSource) Unbounded() bool { return workload.IsUnbounded(s.inner) }

// sourceModel returns the model a stream draws from, if it says; a
// wrapper forwards it so the serving layer's model check still applies.
func sourceModel(src workload.Source) *coe.Model {
	if m, ok := src.(interface{ Model() *coe.Model }); ok {
		return m.Model()
	}
	return nil
}
