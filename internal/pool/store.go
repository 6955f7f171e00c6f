package pool

import (
	"time"

	"repro/internal/coe"
	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/sim"
	"repro/internal/xfer"
)

// source tags where a fetch was served from.
type source int

const (
	srcSSD source = iota
	srcHost
)

// Store is the device-level expert storage hierarchy. Every expert
// permanently resides on SSD; on NUMA devices a host-memory cache holds
// experts recently evicted from GPU pools (Samba-CoE's DDR tier, §2.2).
// The cache is exclusive: fetching an expert moves it out, and demotion
// moves it back in.
type Store struct {
	env    *sim.Env
	dev    *hw.Device
	engine *xfer.Engine
	cache  *hostCache
}

// NewStore returns a store for the device. cacheBytes sets the host
// cache capacity; pass 0 for no cache (UMA devices load experts straight
// from SSD, §5.1).
func NewStore(env *sim.Env, dev *hw.Device, cacheBytes int64) *Store {
	s := &Store{env: env, dev: dev, engine: xfer.NewEngine(env, dev)}
	if cacheBytes > 0 {
		s.cache = newHostCache(cacheBytes)
	}
	return s
}

// Device returns the store's device profile.
func (s *Store) Device() *hw.Device { return s.dev }

// Engine returns the transfer engine (for utilization introspection).
func (s *Store) Engine() *xfer.Engine { return s.engine }

// CacheBytes reports the host cache capacity (0 when absent).
func (s *Store) CacheBytes() int64 {
	if s.cache == nil {
		return 0
	}
	return s.cache.arena.Capacity()
}

// Cached reports whether the expert currently sits in the host cache.
func (s *Store) Cached(id coe.ExpertID) bool {
	return s.cache != nil && s.cache.contains(id)
}

// CacheLen reports the number of cached experts.
func (s *Store) CacheLen() int {
	if s.cache == nil {
		return 0
	}
	return len(s.cache.entries)
}

// fetch plans bringing the expert's weights into the destination tier
// over the physical transfer resources. It serves from the host cache
// when possible (removing the cached copy — the tiers swap, they do not
// replicate) and from SSD otherwise.
func (s *Store) fetch(e *coe.Expert, dst memory.Tier) (source, xfer.Transfer) {
	bytes := e.WeightBytes()
	if s.cache != nil && s.cache.take(e.ID) {
		return srcHost, s.engine.Plan(xfer.FromHost, dst, bytes)
	}
	return srcSSD, s.engine.Plan(xfer.FromSSD, dst, bytes)
}

// PredictLoad reports the expected uncontended switch latency for the
// expert into dst, given current cache contents — the scheduler's
// expert-switching-latency estimate (§4.2).
func (s *Store) PredictLoad(e *coe.Expert, dst memory.Tier) time.Duration {
	bytes := e.WeightBytes()
	if s.Cached(e.ID) {
		return xfer.LoadLatency(s.dev, xfer.FromHost, dst, bytes)
	}
	return xfer.LoadLatency(s.dev, xfer.FromSSD, dst, bytes)
}

// demote records an expert evicted from a pool in the given tier. GPU
// evictions enter the host cache (when present); the in-memory copy is
// otherwise dropped. The copy-out itself is DMA overlapped with compute
// and costs no modeled time.
func (s *Store) demote(e *coe.Expert, from memory.Tier) {
	if s.cache == nil || from != memory.TierGPU {
		return
	}
	s.cache.insert(e)
}

// hostCache is an LRU cache of deserialized experts in CPU memory.
type hostCache struct {
	arena   *memory.Arena
	entries map[coe.ExpertID]*cacheEntry
	seq     int64
}

type cacheEntry struct {
	bytes int64
	used  int64
}

func newHostCache(capacity int64) *hostCache {
	return &hostCache{
		arena:   memory.NewArena("hostcache", capacity),
		entries: make(map[coe.ExpertID]*cacheEntry),
	}
}

func (c *hostCache) contains(id coe.ExpertID) bool {
	_, ok := c.entries[id]
	return ok
}

// take removes the expert from the cache, reporting whether it was there.
func (c *hostCache) take(id coe.ExpertID) bool {
	entry, ok := c.entries[id]
	if !ok {
		return false
	}
	delete(c.entries, id)
	c.arena.Release(entry.bytes)
	return true
}

// insert adds the expert, evicting least-recently-used entries to make
// room. Experts larger than the whole cache are not cached.
func (c *hostCache) insert(e *coe.Expert) {
	bytes := e.WeightBytes()
	if bytes > c.arena.Capacity() {
		return
	}
	if c.contains(e.ID) {
		c.touch(e.ID)
		return
	}
	for c.arena.Free() < bytes {
		c.evictLRU()
	}
	if err := c.arena.Reserve(bytes); err != nil {
		panic("pool: host cache accounting broken: " + err.Error())
	}
	c.seq++
	c.entries[e.ID] = &cacheEntry{bytes: bytes, used: c.seq}
}

func (c *hostCache) touch(id coe.ExpertID) {
	if entry, ok := c.entries[id]; ok {
		c.seq++
		entry.used = c.seq
	}
}

func (c *hostCache) evictLRU() {
	var victim coe.ExpertID = -1
	var oldest int64 = 1<<63 - 1
	//detlint:allow min-fold with a total tie-break on id: the victim is order-independent
	for id, entry := range c.entries {
		if entry.used < oldest || (entry.used == oldest && id < victim) {
			victim, oldest = id, entry.used
		}
	}
	if victim < 0 {
		panic("pool: host cache eviction with no entries")
	}
	entry := c.entries[victim]
	delete(c.entries, victim)
	c.arena.Release(entry.bytes)
}
