package sim

// Event is a one-shot broadcast signal. Waiters queue until some
// handler calls Fire, which posts them in the order they arrived. A
// waiter queued on an already-fired event is posted at once, so Event
// is safe for completion notifications.
type Event struct {
	env     *Env
	fired   bool
	waiters []Message
}

// NewEvent returns an unfired event bound to env.
func NewEvent(env *Env) *Event {
	return &Event{env: env}
}

// Fired reports whether Fire has been called.
func (ev *Event) Fired() bool { return ev.fired }

// Fire marks the event fired and posts every current waiter at the
// current instant, in FIFO order. Firing twice is a no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	for _, m := range ev.waiters {
		ev.env.PostMsg(ev.env.now, m)
	}
	ev.waiters = nil
}

// Wait queues m to be delivered when the event fires, or posts it at
// the current instant if it already has.
func (ev *Event) Wait(m Message) {
	if ev.fired {
		ev.env.PostMsg(ev.env.now, m)
		return
	}
	ev.waiters = append(ev.waiters, m)
}

// Gate is a reusable wake-up signal: Notify releases every current
// waiter, and later waiters queue until the next Notify. It is the
// building block for producer/consumer queues (an executor waits on its
// queue's gate; the controller notifies after enqueueing work).
type Gate struct {
	env     *Env
	waiters []Message
	// spare is the previous waiter buffer, swapped back in on Notify so
	// the notify-wait cycle reuses capacity instead of reallocating.
	spare []Message
}

// NewGate returns a gate bound to env.
func NewGate(env *Env) *Gate {
	return &Gate{env: env}
}

// Notify posts every current waiter at the current instant, in FIFO
// order. Waiters queued after Notify wait for the next Notify.
func (g *Gate) Notify() {
	waiters := g.waiters
	g.waiters = g.spare[:0]
	for i, m := range waiters {
		g.env.PostMsg(g.env.now, m)
		waiters[i] = nil
	}
	g.spare = waiters[:0]
}

// Wait queues m to be delivered at the next Notify.
func (g *Gate) Wait(m Message) {
	g.waiters = append(g.waiters, m)
}

// Waiting reports how many waiters are queued on the gate.
func (g *Gate) Waiting() int { return len(g.waiters) }
