package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// applyFault fires one fault-plan event: the state transition on the
// node, lease voiding and redelivery for crashes, drain timing for
// drains, and pending-queue flushing for recoveries. The exactly-once
// invariant is checked after every event — the fault boundaries.
func (c *Cluster) applyFault(now sim.Time, ev sim.FaultEvent) {
	lg := c.ledger
	n := c.nodes[ev.Node]
	switch ev.Kind {
	case sim.FaultCrash:
		st := n.sys.State()
		if st == core.NodeDown {
			break
		}
		lg.stats.Crashes++
		if st == core.NodeUp {
			c.unroutable++
		} else { // Draining: already unroutable; the drain is moot now
			c.draining--
			c.drainOn[ev.Node] = false
			c.scalerDrained[ev.Node] = false
		}
		// Void the node's outstanding leases in admission order, then
		// crash the node (purging its queues and voiding its in-flight
		// batches), then redeliver. The order matters for arena safety:
		// by the time a redelivered request leases a possibly-recycled
		// object, the ledger's chain copies are the only truth left from
		// the original admission.
		var voided []*lease
		for _, id := range lg.byNode[ev.Node] {
			if k := (orphanKey{id, ev.Node}); lg.orphans[k] > 0 {
				// This node holds orphaned copies — losers of hedge races,
				// or (over a nonzero hop) hedges admitted after their
				// lease resolved or was voided into a redelivery. They die
				// here (the node's own drop accounting records them) and
				// are no longer expected to surface as waste.
				lg.stats.HedgesVoided += int64(lg.orphans[k])
				delete(lg.orphans, k)
			}
			l := lg.live[id]
			if l == nil {
				continue // resolved since
			}
			if l.node != ev.Node {
				if l.hedgeNode == ev.Node {
					// The hedge copy dies with this node; the primary keeps
					// the lease and may hedge again after a fresh deadline.
					l.hedgeNode = -1
					lg.stats.HedgesVoided++
					c.armHedge(l, c.hedge.After)
				}
				continue // moved since; stale byNode entry
			}
			if l.hedgeNode >= 0 {
				// The primary died but its hedge copy holds the work:
				// promote the hedge to primary — no void, no redelivery.
				// byNode on the hedge's node already tracks the ID. The
				// race is over and its losing copy — the primary — died
				// with this node, so the hedge counts as voided.
				l.node = l.hedgeNode
				l.hedgeNode = -1
				lg.stats.HedgePromoted++
				lg.stats.HedgesVoided++
				c.armHedge(l, c.hedge.After)
				continue
			}
			c.cancelHedge(l)
			delete(lg.live, id)
			l.node = -1
			l.voidedAt = now
			voided = append(voided, l)
		}
		lg.byNode[ev.Node] = lg.byNode[ev.Node][:0]
		lg.stats.LostLeases += int64(len(voided))
		if c.health != nil {
			c.health.resetNode(ev.Node)
		}
		n.sys.Crash(now)
		for i, l := range voided {
			if !c.offer(now, l, lg.leaseRequest(l)) {
				// No routable node: this and every remaining lease park.
				for _, p := range voided[i:] {
					lg.park(p)
				}
				break
			}
		}
	case sim.FaultDrain:
		if n.sys.State() != core.NodeUp {
			break
		}
		lg.stats.Drains++
		n.sys.Drain()
		c.unroutable++
		c.draining++
		c.drainOn[ev.Node] = true
		c.drainStart[ev.Node] = now
		c.scalerDrained[ev.Node] = false
		c.checkDrains(now) // an idle node drains instantly
	case sim.FaultRecover:
		st := n.sys.State()
		if st == core.NodeUp {
			if n.sys.GrayDegraded() {
				// The gray recover: the node never left Up, the fault just
				// stops degrading it. No routing or pending-queue work.
				lg.stats.Recoveries++
				n.sys.ClearGray()
			}
			break
		}
		lg.stats.Recoveries++
		if st == core.NodeDown {
			n.sys.Restart()
		} else {
			n.sys.Resume()
			c.draining--
			c.drainOn[ev.Node] = false
			c.scalerDrained[ev.Node] = false
		}
		n.sys.ClearGray()
		c.unroutable--
		c.flushPending(now)
	case sim.FaultSlow:
		if n.sys.State() == core.NodeDown {
			break
		}
		lg.stats.Slows++
		n.sys.SetSlow(ev.Factor)
	case sim.FaultJitter:
		if n.sys.State() == core.NodeDown {
			break
		}
		lg.stats.Jitters++
		n.sys.SetJitter(ev.Factor, jitterSeed(ev))
	case sim.FaultStall:
		if n.sys.State() == core.NodeDown {
			break
		}
		lg.stats.Stalls++
		n.sys.Stall(now, ev.For)
	}
	lg.verify(now, fmt.Sprintf("%s node%d", ev.Kind, ev.Node))
	c.maybeClose()
}

// jitterSeed derives a jitter RNG seed from the event itself, so a
// jittery node's per-batch draw sequence is a pure function of the
// fault plan and runs stay byte-identical.
func jitterSeed(ev sim.FaultEvent) int64 {
	return int64(ev.Node+1)*1_000_000_007 + int64(ev.At)
}

// flushPending delivers parked leases in order after a recovery,
// stopping (and keeping the rest parked) if the fleet goes unroutable
// again mid-flush.
func (c *Cluster) flushPending(now sim.Time) {
	lg := c.ledger
	if len(lg.pending) == 0 {
		return
	}
	rest := lg.pending[:0]
	for i, l := range lg.pending {
		if !c.offer(now, l, lg.leaseRequest(l)) {
			rest = append(rest, lg.pending[i:]...)
			break
		}
	}
	for i := len(rest); i < len(lg.pending); i++ {
		lg.pending[i] = nil
	}
	lg.pending = rest
}
