// Package memory provides byte-accounted memory arenas for the simulated
// device. An Arena tracks reservations against a fixed capacity and lets
// simulation waiters queue until space frees up — the mechanism behind
// the paper's tradeoff between expert storage and batch intermediate
// results (§3.3, §4.4).
package memory

import (
	"fmt"

	"repro/internal/sim"
)

// Tier identifies a memory or storage tier of the device.
type Tier int

const (
	// TierGPU is GPU-visible memory (discrete VRAM or the unified pool).
	TierGPU Tier = iota
	// TierCPU is CPU DRAM (the host cache tier on NUMA devices).
	TierCPU
	// TierSSD is persistent storage; every expert always resides there.
	TierSSD
)

func (t Tier) String() string {
	switch t {
	case TierGPU:
		return "gpu"
	case TierCPU:
		return "cpu"
	case TierSSD:
		return "ssd"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// Arena is a fixed-capacity memory account. Reservations either succeed
// immediately, fail, or (WaitReserve) queue a simulation Message until
// capacity frees. The zero value is unusable; create arenas with
// NewArena.
type Arena struct {
	name     string
	capacity int64
	reserved int64
	waiters  []waiter

	// peak tracks the high-water mark for reporting.
	peak int64
}

type waiter struct {
	env   *sim.Env
	m     sim.Message
	bytes int64
}

// NewArena returns an arena with the given capacity in bytes.
func NewArena(name string, capacity int64) *Arena {
	if capacity < 0 {
		panic("memory: negative capacity")
	}
	return &Arena{name: name, capacity: capacity}
}

// Name reports the arena name.
func (a *Arena) Name() string { return a.name }

// Capacity reports the total capacity in bytes.
func (a *Arena) Capacity() int64 { return a.capacity }

// Reserved reports the bytes currently reserved.
func (a *Arena) Reserved() int64 { return a.reserved }

// Free reports the bytes currently available.
func (a *Arena) Free() int64 { return a.capacity - a.reserved }

// Peak reports the reservation high-water mark.
func (a *Arena) Peak() int64 { return a.peak }

// Reserve takes bytes from the arena, or reports an error if they do not
// fit. Reserving zero bytes always succeeds.
func (a *Arena) Reserve(bytes int64) error {
	if bytes < 0 {
		panic("memory: negative reservation")
	}
	if a.reserved+bytes > a.capacity {
		return fmt.Errorf("memory: arena %s cannot reserve %d bytes (%d free of %d)",
			a.name, bytes, a.Free(), a.capacity)
	}
	a.reserved += bytes
	if a.reserved > a.peak {
		a.peak = a.reserved
	}
	return nil
}

// TryReserve reserves bytes and reports whether it succeeded.
func (a *Arena) TryReserve(bytes int64) bool { return a.Reserve(bytes) == nil }

// Release returns bytes to the arena and wakes any waiter whose request
// now fits (in FIFO order, stopping at the first that still does not).
func (a *Arena) Release(bytes int64) {
	if bytes < 0 {
		panic("memory: negative release")
	}
	if bytes > a.reserved {
		panic(fmt.Sprintf("memory: arena %s released %d bytes with only %d reserved",
			a.name, bytes, a.reserved))
	}
	a.reserved -= bytes
	a.wakeFitting()
}

// wakeFitting resumes queued waiters, head-of-line, while their requests
// fit. The reservation is made on behalf of the waiter before it
// resumes, so capacity cannot be stolen in between.
func (a *Arena) wakeFitting() {
	for len(a.waiters) > 0 {
		w := a.waiters[0]
		if a.reserved+w.bytes > a.capacity {
			return
		}
		a.waiters = a.waiters[1:]
		a.reserved += w.bytes
		if a.reserved > a.peak {
			a.peak = a.reserved
		}
		w.env.PostMsg(w.env.Now(), w.m)
	}
}

// WaitReserve reserves bytes and reports true when they fit now and no
// earlier request is queued. Otherwise it queues m and reports false;
// once a release makes room, the bytes are reserved on m's behalf and m
// is posted on env at the current instant. Requests queue FIFO, so a
// large request is not starved by a stream of small ones. Panics if
// bytes exceeds capacity outright (it could never succeed).
func (a *Arena) WaitReserve(env *sim.Env, m sim.Message, bytes int64) bool {
	if bytes < 0 {
		panic("memory: negative reservation")
	}
	if bytes > a.capacity {
		panic(fmt.Sprintf("memory: arena %s can never satisfy %d bytes (capacity %d)",
			a.name, bytes, a.capacity))
	}
	if len(a.waiters) == 0 && a.reserved+bytes <= a.capacity {
		a.reserved += bytes
		if a.reserved > a.peak {
			a.peak = a.reserved
		}
		return true
	}
	a.waiters = append(a.waiters, waiter{env: env, m: m, bytes: bytes})
	return false
}

// Waiting reports how many waiters are queued for capacity.
func (a *Arena) Waiting() int { return len(a.waiters) }
