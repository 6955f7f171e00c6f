// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives actions against a virtual clock. Events with equal
// timestamps fire in the order they were scheduled, so a simulation is
// fully deterministic given deterministic handler code. An event is one
// of two kinds, and both run inline on the caller's goroutine:
//
//   - a callback (After, AfterFunc);
//   - a typed Message (PostMsg), whose Deliver method runs at the
//     scheduled instant. A message allocates no closure, and the sender
//     may pool its payloads.
//
// These are the kernel's one execution model. CoServe's executors and
// arrival loops are state machines that the kernel resumes as Messages
// or callbacks, and the blocking primitives — Gate, Event, Resource, and
// memory arenas — queue Message waiters and post them at the current
// instant when they may proceed. A periodic loop (a fault plan, an
// autoscaler, health scoring) is a callback that re-arms itself with
// After. The kernel starts no goroutine.
//
// The event loop is the hottest path of every experiment, so it is kept
// allocation-lean: fired events are recycled on a per-environment free
// list.
package sim

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds from the start
// of the simulation.
type Time int64

// Add returns the time d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Duration converts t to a time.Duration since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Message is a typed event payload: Deliver runs inline on the goroutine
// that called Run, at the scheduled instant, exactly like an After
// callback, with at the event's timestamp (== Now). The indirection
// exists for pooling — a protocol can recycle its message structs on its
// own free list, making steady-state traffic allocation-free where
// closures cannot be.
type Message interface {
	Deliver(at Time)
}

// event is a scheduled kernel action. Exactly one of fn and msg is set:
// fn is the callback path; msg is the typed-message path (PostMsg),
// which allocates no closure. Events are pooled on the environment's
// free list, so no field may be read after release.
type event struct {
	at    Time
	seq   int64
	fn    func()  // callback path (After, AfterFunc)
	msg   Message // typed payload (PostMsg) — no closure allocated
	index int     // heap index; -1 once removed from the heap
	next  *event  // free-list link
}

// eventHeap orders events by (time, sequence).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// Swap keeps the cached heap indices in sync so Env.Cancel can remove an
// event by index at any time.
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.index = len(*h)
	*h = append(*h, ev)
}

// Pop clears the removed event's index: a stale index would let a later
// Cancel corrupt the heap by removing whatever event now sits there.
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*h = old[:n-1]
	return ev
}

// Env is a simulation environment: a virtual clock plus an event queue.
// The zero value is not usable; create environments with NewEnv.
type Env struct {
	now     Time
	events  eventHeap
	seq     int64
	running bool

	// free is the event free list; fired and cancelled events are
	// recycled here so steady-state scheduling allocates nothing.
	free *event
}

// NewEnv returns an empty environment with the clock at zero.
func NewEnv() *Env {
	return &Env{}
}

// Now reports the current virtual time.
func (e *Env) Now() Time { return e.now }

// newEvent takes an event from the free list (or allocates one), stamps
// it with the next sequence number, and pushes it on the heap.
func (e *Env) newEvent(at Time) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%v < %v)", at, e.now))
	}
	e.seq++
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &event{}
	}
	ev.at, ev.seq = at, e.seq
	heap.Push(&e.events, ev)
	return ev
}

// releaseEvent returns a fired or cancelled event to the free list. The
// sequence number is cleared so stale Timer handles cannot match it.
func (e *Env) releaseEvent(ev *event) {
	ev.fn, ev.msg = nil, nil
	ev.seq = 0
	ev.index = -1
	ev.next = e.free
	e.free = ev
}

// schedule enqueues fn to run at time at.
func (e *Env) schedule(at Time, fn func()) *event {
	ev := e.newEvent(at)
	ev.fn = fn
	return ev
}

// PostMsg schedules m.Deliver(at) at time at (>= Now): the
// closure-free path timed protocols ride on. The event itself is
// pooled, and the sender may pool m — PostMsg allocates nothing in
// steady state.
func (e *Env) PostMsg(at Time, m Message) {
	e.newEvent(at).msg = m
}

// After schedules fn to run after duration d. It may be called from a
// handler or before Run; the callback runs inline on the goroutine that
// called Run. After(0, fn) runs fn at the current instant, behind every
// event already scheduled for it. A periodic loop is a callback that
// re-arms itself with After.
func (e *Env) After(d time.Duration, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.schedule(e.now.Add(d), fn)
}

// Timer is a handle to a callback scheduled with AfterFunc. Its zero
// value is an expired handle.
type Timer struct {
	env *Env
	ev  *event
	seq int64 // generation guard: events are pooled and reused
}

// AfterFunc schedules fn to run after duration d, like After, and
// returns a Timer that can revoke the callback via Env.Cancel.
func (e *Env) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		panic("sim: negative delay")
	}
	ev := e.schedule(e.now.Add(d), fn)
	return Timer{env: e, ev: ev, seq: ev.seq}
}

// Cancel revokes a pending timer and reports whether it did: false means
// the callback already ran, was already cancelled, or the handle is zero.
// Cancelling a timer on an environment it does not belong to panics,
// like every other cross-environment operation. Cancelling is O(log n) —
// the event is removed from the heap by its cached index and recycled
// immediately.
func (e *Env) Cancel(t Timer) bool {
	ev := t.ev
	if ev == nil {
		return false
	}
	if t.env != e {
		panic("sim: Cancel across environments")
	}
	if ev.seq != t.seq || ev.index < 0 || ev.index >= len(e.events) || e.events[ev.index] != ev {
		return false
	}
	heap.Remove(&e.events, ev.index)
	e.releaseEvent(ev)
	return true
}

// popEvent removes and returns the earliest pending event.
func (e *Env) popEvent() *event {
	return heap.Pop(&e.events).(*event)
}

// dispatch fires one popped event: message events deliver their typed
// payload and callback events run inline. The event is recycled before
// firing so the handler can immediately reuse it.
func (e *Env) dispatch(ev *event) {
	e.now = ev.at
	if m := ev.msg; m != nil {
		at := ev.at
		e.releaseEvent(ev)
		m.Deliver(at)
		return
	}
	fn := ev.fn
	e.releaseEvent(ev)
	fn()
}

// Run executes events until the queue is empty, then returns the final
// clock value. Run may be called again to continue the simulation: the
// clock keeps its value, which is how serving layers run consecutive
// streams on one warm environment. A waiter still queued on a Gate,
// Event, or Resource when a round ends stays queued, and a later
// Notify, Fire, or Release posts it in the next round, so callers leave
// none behind.
func (e *Env) Run() Time {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	for len(e.events) > 0 {
		e.dispatch(e.popEvent())
	}
	e.running = false
	return e.now
}

// RunUntil executes events with timestamps <= deadline and then stops,
// leaving later events queued. It returns the clock value, which is
// deadline if any events remained.
func (e *Env) RunUntil(deadline Time) Time {
	if e.running {
		panic("sim: RunUntil called re-entrantly")
	}
	e.running = true
	for len(e.events) > 0 && e.events[0].at <= deadline {
		e.dispatch(e.popEvent())
	}
	e.running = false
	if len(e.events) > 0 && e.now < deadline {
		e.now = deadline
	}
	return e.now
}
