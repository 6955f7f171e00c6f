// Package pool implements the model pool and dependency-aware expert
// management of §4.3: per-executor pools of loaded experts with pluggable
// eviction policies (LRU and FIFO baselines, and CoServe's two-stage
// dependency-aware strategy), plus the device-level tiered store that
// decides where an expert is fetched from and tracks the host-memory
// cache on NUMA devices.
package pool

import (
	"fmt"
	"time"

	"repro/internal/coe"
	"repro/internal/memory"
	"repro/internal/sim"
)

// Status describes an expert's state within one pool.
type Status int

const (
	// Absent: the expert is not in this pool.
	Absent Status = iota
	// Loading: a switch-in is in flight.
	Loading
	// Loaded: the expert is resident and usable.
	Loaded
)

func (s Status) String() string {
	switch s {
	case Absent:
		return "absent"
	case Loading:
		return "loading"
	case Loaded:
		return "loaded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Entry is one expert's residency record in a pool.
type Entry struct {
	Expert *coe.Expert
	Bytes  int64
	Status Status
	// Pins counts active users (an executor pins the expert for the
	// duration of a batch group). Pinned entries are never evicted.
	Pins int
	// LastUse is the virtual time of the most recent pin or unpin —
	// the LRU key.
	LastUse sim.Time
	// LoadSeq is the monotonically increasing load sequence number —
	// the FIFO key.
	LoadSeq int64
	// ready fires when an in-flight load completes; concurrent
	// acquirers of a shared pool wait on it.
	ready *sim.Event
}

// Pool is the set of experts resident in one executor's memory. Pools
// are single-owner: exactly one executor process mutates a pool, so no
// locking is needed inside the simulation.
type Pool struct {
	name   string
	arena  *memory.Arena
	store  *Store
	tier   memory.Tier
	policy Policy
	now    func() sim.Time

	// Observer, when set, is invoked after every expert switch with the
	// loaded expert, the source tier name, and the elapsed load time.
	Observer func(e *coe.Expert, source string, elapsed time.Duration)

	entries map[coe.ExpertID]*Entry
	seq     int64

	// holds is the owning node's residency count, indexed by ExpertID
	// and shared by all of its pools: entry i counts the pools holding
	// expert i, Loaded or Loading. The pool keeps it current at its
	// only mutation points — Preload and Acquire insert, evict deletes
	// — so "does the node hold e?" is one slice read instead of a map
	// probe per pool.
	holds []int32

	// scratch backs LoadedUnpinned so every eviction decision reuses one
	// candidate buffer instead of allocating a fresh slice.
	scratch []*Entry

	// stats
	switches  int64
	evictions int64
	loadTime  time.Duration
	hostHits  int64
	ssdLoads  int64
}

// New returns an empty pool with the given expert-memory capacity,
// backed by the device store, holding experts in the given tier. holds
// is the residency count the pool maintains: one slice per node, shared
// by all of the node's pools, with an entry for every ExpertID the pool
// may hold.
func New(name string, capacity int64, store *Store, tier memory.Tier, policy Policy, now func() sim.Time, holds []int32) *Pool {
	if policy == nil {
		panic("pool: nil policy")
	}
	return &Pool{
		name:    name,
		arena:   memory.NewArena(name+"/experts", capacity),
		store:   store,
		tier:    tier,
		policy:  policy,
		now:     now,
		entries: make(map[coe.ExpertID]*Entry),
		holds:   holds,
	}
}

// Name reports the pool name.
func (p *Pool) Name() string { return p.name }

// Capacity reports the pool's expert-memory capacity in bytes.
func (p *Pool) Capacity() int64 { return p.arena.Capacity() }

// FreeBytes reports unreserved pool capacity.
func (p *Pool) FreeBytes() int64 { return p.arena.Free() }

// Policy returns the pool's eviction policy.
func (p *Pool) Policy() Policy { return p.policy }

// IsLoaded reports whether the expert is resident (status Loaded).
func (p *Pool) IsLoaded(id coe.ExpertID) bool {
	e, ok := p.entries[id]
	return ok && e.Status == Loaded
}

// Resident reports whether the expert occupies the pool at all — Loaded,
// or Loading with the switch-in still in flight: a request routed to a
// pool whose expert is already loading pays the remaining wait, not a
// fresh switch. It is exactly the pool's share of the node's residency
// count (see New), which cluster routers read instead.
func (p *Pool) Resident(id coe.ExpertID) bool {
	_, ok := p.entries[id]
	return ok
}

// Status reports the expert's residency state in the pool.
func (p *Pool) Status(id coe.ExpertID) Status {
	e, ok := p.entries[id]
	if !ok {
		return Absent
	}
	return e.Status
}

// Loaded returns the number of resident experts.
func (p *Pool) Loaded() int {
	n := 0
	//detlint:allow commutative count
	for _, e := range p.entries {
		if e.Status == Loaded {
			n++
		}
	}
	return n
}

// Switches reports the number of expert switch-ins (loads) since the
// last ResetStats — the quantity of Figure 14.
func (p *Pool) Switches() int64 { return p.switches }

// Evictions reports the number of expert evictions since ResetStats.
func (p *Pool) Evictions() int64 { return p.evictions }

// LoadTime reports cumulative virtual time spent loading experts.
func (p *Pool) LoadTime() time.Duration { return p.loadTime }

// HostHits and SSDLoads break switches down by source tier.
func (p *Pool) HostHits() int64 { return p.hostHits }
func (p *Pool) SSDLoads() int64 { return p.ssdLoads }

// ResetStats zeroes the switch/eviction counters. The system calls it
// after initialization so preloading does not count as switching.
func (p *Pool) ResetStats() {
	p.switches, p.evictions, p.hostHits, p.ssdLoads = 0, 0, 0, 0
	p.loadTime = 0
}

// Preload inserts an expert without cost, for the expert initializer
// (§4.1). It reports false when the expert does not fit.
func (p *Pool) Preload(e *coe.Expert) bool {
	if p.IsLoaded(e.ID) {
		return true
	}
	bytes := e.WeightBytes()
	if !p.arena.TryReserve(bytes) {
		return false
	}
	p.seq++
	p.entries[e.ID] = &Entry{
		Expert:  e,
		Bytes:   bytes,
		Status:  Loaded,
		LoadSeq: p.seq,
	}
	p.holds[e.ID]++
	return true
}

// Acquire makes the expert resident and pins it, evicting and loading as
// needed on behalf of the executor process. It reports whether this call
// performed an expert switch. A pool may be shared by several executors
// (the Samba-CoE Parallel arrangement): a concurrent acquirer of an
// expert whose load is in flight waits for that load instead of starting
// another. Acquire panics if eviction cannot free enough memory (the
// configuration validator guarantees pool capacity exceeds the largest
// expert plus one pinned expert per sharer).
func (p *Pool) Acquire(proc *sim.Proc, e *coe.Expert) bool {
	for {
		entry, ok := p.entries[e.ID]
		if !ok {
			break // absent: load it below
		}
		if entry.Status == Loaded {
			entry.Pins++
			entry.LastUse = p.now()
			return false
		}
		// A sharer is loading it: wait, then re-check (the entry may
		// have been evicted again before we got a pin on it).
		entry.ready.Wait(proc)
	}

	bytes := e.WeightBytes()
	if need := bytes - p.arena.Free(); need > 0 {
		p.evict(need)
	}
	if err := p.arena.Reserve(bytes); err != nil {
		panic(fmt.Sprintf("pool %s: %v after eviction", p.name, err))
	}
	p.seq++
	entry := &Entry{
		Expert:  e,
		Bytes:   bytes,
		Status:  Loading,
		LoadSeq: p.seq,
		Pins:    1,
		ready:   sim.NewEvent(proc.Env()),
	}
	p.entries[e.ID] = entry
	p.holds[e.ID]++

	src, d := p.store.Fetch(proc, e, p.tier)
	p.loadTime += d
	srcName := "ssd"
	if src == srcHost {
		p.hostHits++
		srcName = "host"
	} else {
		p.ssdLoads++
	}
	p.switches++
	if p.Observer != nil {
		p.Observer(e, srcName, d)
	}

	entry.Status = Loaded
	entry.LastUse = p.now()
	entry.ready.Fire()
	return true
}

// Release unpins the expert after a batch group finishes.
func (p *Pool) Release(id coe.ExpertID) {
	entry, ok := p.entries[id]
	if !ok || entry.Pins <= 0 {
		panic(fmt.Sprintf("pool %s: release of unpinned expert %d", p.name, id))
	}
	entry.Pins--
	entry.LastUse = p.now()
}

// evict frees at least need bytes using the policy, demoting victims to
// the host cache when the store has one.
func (p *Pool) evict(need int64) {
	victims := p.policy.Victims(p, need)
	var freed int64
	for _, id := range victims {
		entry, ok := p.entries[id]
		if !ok || entry.Status != Loaded || entry.Pins > 0 {
			panic(fmt.Sprintf("pool %s: policy chose invalid victim %d", p.name, id))
		}
		delete(p.entries, id)
		p.holds[id]--
		p.arena.Release(entry.Bytes)
		p.store.demote(entry.Expert, p.tier)
		p.evictions++
		freed += entry.Bytes
	}
	if freed < need {
		panic(fmt.Sprintf("pool %s: policy freed %d of %d needed bytes", p.name, freed, need))
	}
}

// LoadedUnpinned returns resident, unpinned entries in ascending
// ExpertID order — the stable candidate list handed to policies. The
// returned slice is only valid until the next call: it is a reused
// scratch buffer that policies may reorder but must not retain.
func (p *Pool) LoadedUnpinned() []*Entry {
	out := p.scratch[:0]
	//detlint:allow collected entries are sorted by ExpertID below before any policy sees them
	for _, e := range p.entries {
		if e.Status == Loaded && e.Pins == 0 {
			out = append(out, e)
		}
	}
	sortEntriesByID(out)
	p.scratch = out
	return out
}

func sortEntriesByID(entries []*Entry) {
	// Insertion sort: candidate lists are small and this avoids pulling
	// in sort with a closure allocation on the hot eviction path.
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].Expert.ID < entries[j-1].Expert.ID; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
}
