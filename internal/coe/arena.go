package coe

// Arena is a free-list of Request objects for high-volume serving
// streams. Unbounded open-loop sources allocate one Request (plus its
// chain) per arrival; at fleet scale that dominates the allocation
// profile of the whole data plane. An arena caps it at the in-flight
// high-water mark: the serving layer recycles a request when it
// completes or is rejected, and the next arrival reuses the object and
// its chain capacity.
//
// Ownership protocol: Lease hands out a request owned by the caller;
// Recycle (a package function, safe on non-arena requests) returns it.
// A request must not be recycled while anything still references it —
// the serving layer guarantees this by recycling only after the
// completion/rejection is fully recorded (trace events and window
// samples copy values, never retain the pointer). An Arena is owned by
// the workload source's caller and persists across streams and warm
// restarts, so consecutive streams share one pool.
//
// An Arena is not safe for concurrent use. One simulation runs on one
// goroutine, so a single arena may serve every node of a
// cluster within one sim.Env, but distinct parallel experiment runs
// need distinct arenas.
type Arena struct {
	free   []*Request
	leases int64
	reuses int64
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Lease returns a zeroed request owned by the caller, reusing a
// recycled one when available. The request's chain is length zero but
// keeps its previous capacity — fill it with AppendRoute (or append)
// rather than assigning a fresh slice, or the recycling is pointless.
func (a *Arena) Lease() *Request {
	a.leases++
	var r *Request
	if n := len(a.free); n > 0 {
		r = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		a.reuses++
		r.ID, r.Class, r.stage = 0, 0, 0
		r.Arrival, r.Done = 0, 0
		r.Chain = r.Chain[:0]
	} else {
		r = &Request{}
	}
	r.arena = a
	return r
}

// Recycle returns a leased request to its arena's free list. It is a
// no-op for nil requests and requests that did not come from an arena
// (plain NewRequest objects flow through unchanged), and it is
// idempotent: the lease marker clears on the first call, so a double
// recycle cannot put the same object in the free list twice.
func Recycle(r *Request) {
	if r == nil || r.arena == nil {
		return
	}
	a := r.arena
	r.arena = nil
	a.free = append(a.free, r)
}

// Leases reports how many requests the arena has handed out.
func (a *Arena) Leases() int64 { return a.leases }

// Reuses reports how many leases were satisfied from the free list
// rather than a fresh allocation.
func (a *Arena) Reuses() int64 { return a.reuses }

// Free reports the current free-list length — at most the in-flight
// high-water mark of the streams the arena has served.
func (a *Arena) Free() int { return len(a.free) }
