// Package xfer models expert transfers between memory tiers: the SSD
// read + framework deserialization path and the host-to-GPU copy (PCIe
// on NUMA, data reorganization on UMA). Transfers contend on per-device
// simulation resources, so concurrent loads serialize on the physical
// units exactly as they do on the real machine — which is what makes
// expert switching the system bottleneck (Figure 1).
package xfer

import (
	"fmt"
	"time"

	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/sim"
)

// Source describes where an expert is loaded from.
type Source int

const (
	// FromSSD loads a serialized expert from storage (read + deserialize).
	FromSSD Source = iota
	// FromHost copies an already-deserialized expert from CPU memory to
	// the GPU (PCIe copy on NUMA, reorganization on UMA).
	FromHost
)

func (s Source) String() string {
	switch s {
	case FromSSD:
		return "ssd"
	case FromHost:
		return "host"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// hostLinkBW returns the CPU→GPU copy bandwidth for the device.
func hostLinkBW(d *hw.Device) float64 {
	if d.Mem == hw.UMA {
		return d.ReorgBW
	}
	return d.PCIeBW
}

// bwDuration converts bytes at bw bytes/s into a duration.
func bwDuration(bytes int64, bw float64) time.Duration {
	return time.Duration(float64(bytes) / bw * float64(time.Second))
}

// LoadLatency reports the modeled time to bring bytes of expert weights
// to the destination tier from the given source, without contention.
//
//   - FromSSD to CPU: SSD read + deserialization + fixed overhead.
//   - FromSSD to GPU: the CPU path plus the host→GPU copy.
//   - FromHost to GPU: host→GPU copy + fixed overhead.
//   - FromHost to CPU: fixed overhead only (weights already usable).
func LoadLatency(d *hw.Device, src Source, dst memory.Tier, bytes int64) time.Duration {
	lat := d.LoadFixed
	switch src {
	case FromSSD:
		lat += bwDuration(bytes, d.SSDReadBW) + bwDuration(bytes, d.DeserBW)
		if dst == memory.TierGPU {
			lat += bwDuration(bytes, hostLinkBW(d))
		}
	case FromHost:
		if dst == memory.TierGPU {
			lat += bwDuration(bytes, hostLinkBW(d))
		}
	default:
		panic(fmt.Sprintf("xfer: unknown source %v", src))
	}
	return lat
}

// Engine executes transfers under contention. The loader resource covers
// the SSD-read-plus-deserialization stage (limited to the device's
// concurrent load streams); the host link covers CPU→GPU copies.
type Engine struct {
	dev      *hw.Device
	loader   *sim.Resource
	hostLink *sim.Resource

	loads     int64
	loadBytes int64
}

// NewEngine returns an engine for the device bound to env. The host
// link serializes on NUMA devices (one PCIe copy at a time); on UMA the
// "link" is data reorganization by CPU cores, which parallelizes like
// the load streams.
func NewEngine(env *sim.Env, dev *hw.Device) *Engine {
	hostCap := 1
	if dev.Mem == hw.UMA {
		hostCap = dev.LoadConcurrency()
	}
	return &Engine{
		dev:      dev,
		loader:   sim.NewResource(env, dev.Name+"/loader", dev.LoadConcurrency()),
		hostLink: sim.NewResource(env, dev.Name+"/hostlink", hostCap),
	}
}

// Device returns the engine's device profile.
func (e *Engine) Device() *hw.Device { return e.dev }

// Leg is one stage of a transfer: hold Res for Hold of virtual time.
type Leg struct {
	Res  *sim.Resource
	Hold time.Duration
}

// Transfer is a planned transfer: its legs, held one after another by
// the caller, and the bytes it moves. A transfer has at most two legs
// (SSD read plus deserialization, then the host link).
type Transfer struct {
	legs  [2]Leg
	n     int
	bytes int64
}

// Legs returns the transfer's stages in the order they are held.
func (t *Transfer) Legs() []Leg { return t.legs[:t.n] }

// Plan stages a transfer of bytes from src to dst on the engine's
// physical resources. The caller holds each leg in turn — acquire the
// resource, hold it for the leg's duration, release it — and then calls
// Finish; the elapsed virtual time, queueing included, is the
// transfer's latency.
func (e *Engine) Plan(src Source, dst memory.Tier, bytes int64) Transfer {
	t := Transfer{n: 1, bytes: bytes}
	switch src {
	case FromSSD:
		t.legs[0] = Leg{e.loader, e.dev.LoadFixed + bwDuration(bytes, e.dev.SSDReadBW) + bwDuration(bytes, e.dev.DeserBW)}
		if dst == memory.TierGPU {
			t.legs[1] = Leg{e.hostLink, bwDuration(bytes, hostLinkBW(e.dev))}
			t.n = 2
		}
	case FromHost:
		stage := e.dev.LoadFixed
		if dst == memory.TierGPU {
			stage += bwDuration(bytes, hostLinkBW(e.dev))
		}
		t.legs[0] = Leg{e.hostLink, stage}
	default:
		panic(fmt.Sprintf("xfer: unknown source %v", src))
	}
	return t
}

// Finish counts a transfer whose legs have all been held.
func (e *Engine) Finish(t *Transfer) {
	e.loads++
	e.loadBytes += t.bytes
}

// Loads reports the number of transfers executed.
func (e *Engine) Loads() int64 { return e.loads }

// LoadBytes reports the total bytes transferred.
func (e *Engine) LoadBytes() int64 { return e.loadBytes }

// LoaderBusy reports cumulative busy time of the load stage, for
// utilization analysis.
func (e *Engine) LoaderBusy() time.Duration { return e.loader.BusyTime() }
