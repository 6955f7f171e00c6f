package core

import (
	"repro/internal/coe"
	"repro/internal/control"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// controller owns admission and completion for one stream served by a
// System: it feeds timed requests from the arrival loop through the
// admission policy into the dispatch path, tracks outstanding work, and
// shuts the executors down once the stream has fully drained — the
// lifecycle logic that used to live inline in RunTask. In cluster mode
// the same controller runs without an arrival loop: the cluster routes
// requests in through offer and closes the stream itself.
type controller struct {
	sys    *System
	src    workload.Source
	stream string   // the stream name reports and traces carry
	start  sim.Time // virtual instant the stream began

	// delegate, when set, observes request completions from outside the
	// node — the cluster layer's fleet accounting hook.
	delegate StreamDelegate
	// tenantAdmit is the admission policy's tenant-aware interface when
	// it implements one (control.TenantQuota); resolved once so the
	// per-arrival path pays no type assertion.
	tenantAdmit control.TenantAdmitter

	// arrive is the arrival loop's callback, bound once per stream so
	// re-arming it allocates nothing; due is the request it is waiting
	// to offer, valid while waiting is set.
	arrive  func()
	due     workload.TimedRequest
	waiting bool

	admitted   int64
	rejected   int64
	completed  int64
	dropped    int64 // admitted requests voided by node crashes
	peakQueued int   // largest backlog observed at a dispatch instant
	closed     bool  // the source is exhausted
	finished   bool  // every admitted request has completed or dropped

	// tenantOf maps in-flight request IDs to their tenant for
	// multi-tenant sources; entries are deleted as requests complete so
	// long streams do not accumulate dead IDs. Nil until the first
	// tagged request.
	tenantOf map[int64]string
	tenants  map[string]*tenantAgg
	order    []string // tenant names in first-seen order
}

// tenantAgg accumulates one tenant's slice of a multi-tenant run. In
// sketch mode latency samples stream into sketch instead of latencies,
// so per-tenant accounting is also O(1) in completions.
type tenantAgg struct {
	admitted  int64
	rejected  int64
	completed int64
	latencies []float64
	sketch    *stats.Sketch
}

// addLatency records one completion latency (seconds) for the tenant.
func (a *tenantAgg) addLatency(lat float64) {
	if a.sketch != nil {
		a.sketch.Add(lat)
		return
	}
	a.latencies = append(a.latencies, lat)
}

func newController(s *System, src workload.Source) *controller {
	c := &controller{sys: s, src: src, start: s.env.Now()}
	if src != nil {
		c.stream = src.Name()
	}
	if ta, ok := s.cfg.Admission.(control.TenantAdmitter); ok {
		c.tenantAdmit = ta
	}
	return c
}

// admit starts the arrival loop at the current instant, behind the
// events already scheduled for it.
func (c *controller) admit() {
	c.arrive = c.arrivals
	c.sys.env.After(0, c.arrive)
}

// arrivals is the arrival loop, a self-rescheduling kernel callback: it
// walks the source, offering each request to admission and dispatch at
// its due time, and re-arms itself for the first request not yet due.
// When the source closes it arms completion-driven shutdown (and shuts
// down immediately if the stream already drained).
func (c *controller) arrivals() {
	now := c.sys.env.Now()
	if c.waiting {
		c.waiting = false
		c.offer(now, c.due)
	}
	for {
		tr, ok := c.src.Next()
		if !ok {
			break
		}
		if wait := c.start.Add(tr.At).Sub(now); wait > 0 {
			c.due, c.waiting = tr, true
			c.sys.env.After(wait, c.arrive)
			return
		}
		c.offer(now, tr)
	}
	c.due = workload.TimedRequest{}
	c.closed = true
	if c.completed+c.dropped == c.admitted {
		c.finish()
	}
}

// offer runs one arrival through the admission policy and, if accepted,
// the dispatch path, at virtual time now. Rejected requests leave
// exactly one mark — a rejection count (and a KindRejected trace
// event) — and never touch a queue, the recorder's completion path, or
// the per-tenant latency aggregates. It is the shared arrival body of
// the node's own admit loop and the cluster's router loop (Offer).
func (c *controller) offer(now sim.Time, tr workload.TimedRequest) bool {
	s := c.sys
	r := tr.Req
	if s.cfg.Admission != nil && !c.admitOne(now, r, tr.Tenant) {
		c.rejected++
		s.recorder.Rejection(now)
		if tr.Tenant != "" {
			c.tenantFor(tr.Tenant).rejected++
		}
		if s.cfg.Trace != nil {
			s.cfg.Trace.Add(trace.Event{
				At: now.Duration(), Kind: trace.KindRejected, Request: r.ID,
			})
		}
		// The rejection is fully recorded (counters and the trace event
		// copy values, not the pointer), so an arena-leased request can
		// go straight back to its free list.
		coe.Recycle(r)
		return false
	}
	r.Arrival = now
	s.recorder.Arrival(r.Arrival)
	c.admitted++
	if tr.Tenant != "" {
		c.tag(r.ID, tr.Tenant)
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace.Add(trace.Event{
			At: r.Arrival.Duration(), Kind: trace.KindArrival, Request: r.ID,
		})
	}
	s.dispatch(r)
	return true
}

// admitOne consults the admission policy, through its tenant-aware
// interface when it has one.
func (c *controller) admitOne(now sim.Time, r *coe.Request, tenant string) bool {
	if c.tenantAdmit != nil {
		return c.tenantAdmit.AdmitTenant(now, c.sys, r, tenant)
	}
	return c.sys.cfg.Admission.Admit(now, c.sys, r)
}

// onBatch advances a completed stage: multi-stage requests are
// re-dispatched for their subsequent expert; finished requests are
// recorded, and the final completion of a closed stream shuts the
// system down.
func (c *controller) onBatch(now sim.Time, r *coe.Request) {
	s := c.sys
	s.recorder.StageDone()
	if r.Advance() {
		s.dispatch(r)
		return
	}
	r.Done = now
	s.recorder.Completion(r.Arrival, now)
	if tenant, ok := c.tenantOf[r.ID]; ok {
		agg := c.tenants[tenant]
		agg.completed++
		agg.addLatency(now.Sub(r.Arrival).Seconds())
		delete(c.tenantOf, r.ID)
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace.Add(trace.Event{
			At: now.Duration(), Kind: trace.KindComplete,
			Request: r.ID, Dur: now.Sub(r.Arrival),
		})
	}
	c.completed++
	if c.delegate != nil {
		c.delegate.RequestDone(now, r)
	}
	// Last touch of the request: its completion is recorded, the trace
	// event holds copies, the tenant entry is gone, and the delegate has
	// observed it. An arena-leased request is now safe to reuse.
	coe.Recycle(r)
	if c.closed && c.completed+c.dropped == c.admitted {
		c.finish()
	}
}

// drop strikes a crash-voided request from the stream's accounting: it
// was admitted but will never complete here — its lease holder
// redelivers it to another node. The request is recycled (the voiding
// dispatcher copied what it needs before the crash was applied) and the
// stream can still finish exactly: completed + dropped == admitted.
func (c *controller) drop(now sim.Time, r *coe.Request) {
	s := c.sys
	c.dropped++
	if _, ok := c.tenantOf[r.ID]; ok {
		delete(c.tenantOf, r.ID)
	}
	if s.cfg.Trace != nil {
		s.cfg.Trace.Add(trace.Event{
			At: now.Duration(), Kind: trace.KindDropped, Request: r.ID,
		})
	}
	coe.Recycle(r)
	if c.closed && c.completed+c.dropped == c.admitted {
		c.finish()
	}
}

// finish marks the stream complete and wakes every executor so it can
// observe Done and exit, leaving the environment clean for a warm
// restart.
func (c *controller) finish() {
	c.finished = true
	for _, q := range c.sys.queues {
		q.Gate().Notify()
	}
}

// tenantFor returns (creating if needed) a tenant's aggregate,
// registering first-seen order.
func (c *controller) tenantFor(tenant string) *tenantAgg {
	if c.tenantOf == nil {
		c.tenantOf = make(map[int64]string)
		c.tenants = make(map[string]*tenantAgg)
	}
	agg, ok := c.tenants[tenant]
	if !ok {
		agg = &tenantAgg{}
		if c.sys.cfg.Percentiles == PercentilesSketch {
			agg.sketch = stats.NewSketch()
		}
		c.tenants[tenant] = agg
		c.order = append(c.order, tenant)
	}
	return agg
}

// tag records an admitted request's tenant for per-tenant accounting.
// Only admitted requests enter tenantOf: the entry is the request's
// in-flight marker and is deleted on completion (rejected requests
// never complete, so mapping them would leak one entry per rejection).
func (c *controller) tag(id int64, tenant string) {
	c.tenantFor(tenant).admitted++
	c.tenantOf[id] = tenant
}

// tenantStats renders the per-tenant breakdown in first-seen order.
func (c *controller) tenantStats(slo float64) []TenantStats {
	if len(c.order) == 0 {
		return nil
	}
	out := make([]TenantStats, 0, len(c.order))
	for _, name := range c.order {
		agg := c.tenants[name]
		ts := TenantStats{
			Name:        name,
			Admitted:    agg.admitted,
			Rejected:    agg.rejected,
			Completions: agg.completed,
		}
		if agg.sketch != nil {
			ts.Latency = agg.sketch.Summary()
			ts.SLOAttainment = agg.sketch.Attainment(slo)
		} else {
			ts.Latency = stats.Summarize(agg.latencies)
			ts.SLOAttainment = stats.Attainment(agg.latencies, slo)
		}
		out = append(out, ts)
	}
	return out
}
