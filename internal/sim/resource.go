package sim

import (
	"fmt"
	"time"
)

// holder records one owner's claim on a resource unit and when it took
// it. Holders live in a small slice instead of a map: capacities are tiny
// (usually 1), so a linear scan beats hashing on the acquire/release hot
// path and allocates nothing in steady state.
type holder struct {
	owner Message
	since Time
}

// Resource models a unit of physical capacity — a GPU compute engine, a
// PCIe bus, an SSD controller — that at most cap owners may hold
// simultaneously. An owner is the Message that acquires: it is the key
// its claim is released by, and the waiter posted when a unit frees.
// Contending owners queue in FIFO order, which keeps simulations
// deterministic.
type Resource struct {
	env     *Env
	name    string
	cap     int
	holders []holder
	waiters []Message

	// accounting
	busy time.Duration // cumulative held time x units
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{
		env:     env,
		name:    name,
		cap:     capacity,
		holders: make([]holder, 0, capacity),
	}
}

// Name reports the resource name.
func (r *Resource) Name() string { return r.name }

// Cap reports the resource capacity.
func (r *Resource) Cap() int { return r.cap }

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return len(r.holders) }

// QueueLen reports the number of owners waiting to acquire.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// holderIndex returns the index of owner's claim, or -1.
func (r *Resource) holderIndex(owner Message) int {
	for i := range r.holders {
		if r.holders[i].owner == owner {
			return i
		}
	}
	return -1
}

// Acquire takes a unit for owner and reports true if one is free.
// Otherwise it queues owner, reports false, and posts owner at the
// current instant once a release frees a unit; the woken owner must
// call Acquire again, because the unit is not reserved for it. An owner
// must not acquire the same resource twice without releasing.
func (r *Resource) Acquire(owner Message) bool {
	if r.holderIndex(owner) >= 0 {
		panic(fmt.Sprintf("sim: %v re-acquired resource %s", owner, r.name))
	}
	if r.TryAcquire(owner) {
		return true
	}
	r.waiters = append(r.waiters, owner)
	return false
}

// TryAcquire takes a unit for owner if one is free and reports whether
// it did, without queueing.
func (r *Resource) TryAcquire(owner Message) bool {
	if len(r.holders) >= r.cap {
		return false
	}
	r.holders = append(r.holders, holder{owner: owner, since: r.env.now})
	return true
}

// Release returns owner's unit and posts the first waiter, if any.
func (r *Resource) Release(owner Message) {
	i := r.holderIndex(owner)
	if i < 0 {
		panic(fmt.Sprintf("sim: %v released resource %s it does not hold", owner, r.name))
	}
	r.busy += r.env.now.Sub(r.holders[i].since)
	last := len(r.holders) - 1
	r.holders[i] = r.holders[last]
	r.holders[last] = holder{}
	r.holders = r.holders[:last]
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		// Shift down instead of re-slicing forward: the buffer keeps its
		// front capacity, so the waiter queue stops allocating once it has
		// grown to the steady-state contention level.
		copy(r.waiters, r.waiters[1:])
		r.waiters[len(r.waiters)-1] = nil
		r.waiters = r.waiters[:len(r.waiters)-1]
		r.env.PostMsg(r.env.now, next)
	}
}

// BusyTime reports the cumulative virtual time units of the resource
// have been held (unit-seconds; divide by Cap for utilization).
func (r *Resource) BusyTime() time.Duration { return r.busy }
