package cluster

import (
	"fmt"
	"time"

	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// chaosState is the durable-delivery bookkeeping of one stream. The
// cluster front end is the lease holder: every arrival it admits opens
// a lease (with a private copy of the request's expert chain — once
// offered, the request object belongs to the node, which recycles it
// into its arena when it completes, is rejected, or is voided by a
// crash), completions resolve leases exactly once, and a crash voids
// the dead node's leases so their requests can be redelivered to
// surviving nodes.
type chaosState struct {
	arena *coe.Arena // redelivered requests lease from here when set

	// ledger maps a live lease's request ID to its record; byNode holds
	// each node's lease IDs in admission order, so a crash voids (and
	// redelivers) them deterministically — never by map iteration, whose
	// order would differ run to run. Entries in byNode go stale when a
	// lease resolves or moves; the crash walk skips them, and track
	// compacts them away before a node's list grows.
	ledger map[int64]*lease
	byNode [][]int64

	// pending holds voided (or never-delivered) leases waiting for a
	// routable node, in void order; flushed on every recovery.
	pending     []*lease
	pendingPeak int

	// freeLease heads the lease free list: resolved leases recycle here
	// (chain capacity retained, across streams too) so a lease costs no
	// allocation in steady state. Release is gated on aliasing: see
	// resolveLease.
	freeLease *lease

	srcClosed bool

	// Exactly-once accounting: at every fault boundary,
	// arrivals == completions + terminalRejected + len(ledger) + len(pending)
	//           + offersInFlight.
	// The last term is nonzero only over a nonzero hop: a delivery on
	// the wire holds its request's accounting token until the fold
	// lands it in one of the other buckets. hedgeOffers tracks
	// in-flight hedge copies separately — duplicates carry no token but
	// still gate stream close. bounced counts offers that found their
	// node not Up and were re-routed.
	arrivals         int64 // requests the source yielded
	completions      int64 // lease-resolved completions (each request once)
	terminalRejected int64 // requests rejected with no lease left open
	offersInFlight   int64 // deliveries on the wire
	hedgeOffers      int64 // hedge offers on the wire
	bounced          int64 // offers bounced off a not-Up node
	violations       []string

	crashes, drains, recoveries int
	slows, jitters, stalls      int   // gray fault events fired
	lostLeases                  int64 // leases voided by crashes
	redelivered                 int64 // successful re-admissions of voided leases
	redeliveredRejected         int64 // voided leases a node's admission refused
	dupAcks                     int64 // completions with no live lease (0 by design)

	// Hedge accounting. A fired hedge puts a second copy of a leased
	// request on another node; the first completion resolves the lease
	// and the loser — counted in orphans by request and holding node —
	// surfaces as wasted work when it completes (or as a voided hedge
	// when a crash takes it first), never as a second completion. Every
	// fired hedge therefore ends exactly once as wasted or voided.
	hedgesFired   int64 // hedge copies successfully admitted
	hedgeWins     int64 // leases resolved by the hedge copy
	hedgeWasted   int64 // loser copies that completed (work done twice)
	hedgeRejected int64 // hedge copies node admission refused
	hedgeRetries  int64 // deadline re-arms after a failed hedge attempt
	hedgePromoted int64 // primaries lost to a crash, lease taken by the hedge
	hedgesVoided  int64 // races whose losing copy a crash destroyed (the hedge copy, or the primary on promotion)
	orphans       map[orphanKey]int

	failoverSum time.Duration
	failoverMax time.Duration
	failoverN   int64
}

// orphanKey names the orphaned copies of one request on one node: the
// losers of hedge races and, over an interconnect, hedge copies
// admitted after their lease resolved or was voided. One request can
// leave orphans on several nodes (and more than one on a node) when it
// is hedged again after a crash or a redelivery, so they are counted
// per node rather than remembered once per request.
type orphanKey struct {
	id   int64
	node int
}

// addOrphan records an orphaned copy of request id on node.
func (cs *chaosState) addOrphan(id int64, node int) {
	cs.orphans[orphanKey{id, node}]++
}

// takeOrphan consumes one orphaned copy of request id on node,
// reporting whether there was one.
func (cs *chaosState) takeOrphan(id int64, node int) bool {
	k := orphanKey{id, node}
	switch n := cs.orphans[k]; n {
	case 0:
		return false
	case 1:
		delete(cs.orphans, k)
	default:
		cs.orphans[k] = n - 1
	}
	return true
}

// lease is one request's durable-delivery record: identity, the chain
// copy redelivery rebuilds the request from, where it currently lives,
// and its original arrival for exactly-once latency accounting.
type lease struct {
	id     int64
	class  int
	tenant string
	chain  []coe.ExpertID // private copy; never aliases a live request

	node         int // holding node, -1 while voided/parked
	hasArrival   bool
	arrival      sim.Time // first admission — the latency clock's origin
	voidedAt     sim.Time
	redeliveries int

	// Hedging state: the node holding the speculative second copy (-1
	// while unhedged), the pending deadline timer, and how many times
	// the deadline has re-armed after failed hedge attempts.
	// hedgeInFlight marks a hedge offer whose fold has not landed yet,
	// so the deadline cannot launch a second copy meanwhile.
	hedgeNode     int
	hedgeInFlight bool
	timer         sim.Timer
	timerSet      bool
	retries       int

	nextFree *lease // free-list link, meaningful only while released
}

func newChaosState(nodes int, arena *coe.Arena) *chaosState {
	return &chaosState{
		arena:   arena,
		ledger:  make(map[int64]*lease),
		byNode:  make([][]int64, nodes),
		orphans: make(map[orphanKey]int),
	}
}

// reset readies the state for a new stream: every counter and queue
// empties, while the maps, the byNode lists, and the lease free list
// keep their storage.
func (cs *chaosState) reset() {
	clear(cs.ledger)
	clear(cs.orphans)
	for i := range cs.byNode {
		cs.byNode[i] = cs.byNode[i][:0]
	}
	*cs = chaosState{
		arena:     cs.arena,
		ledger:    cs.ledger,
		byNode:    cs.byNode,
		orphans:   cs.orphans,
		freeLease: cs.freeLease,
	}
}

// track appends lease id to node's crash-walk list. Before the list
// grows it is compacted in order down to the entries a crash walk
// would act on — a live lease whose primary or hedge copy is on the
// node, or an orphan there — so the lists stay proportional to the
// work in flight rather than to the stream.
func (cs *chaosState) track(node int, id int64) {
	ids := cs.byNode[node]
	if len(ids) == cap(ids) {
		keep := ids[:0]
		for _, kept := range ids {
			l := cs.ledger[kept]
			if (l != nil && (l.node == node || l.hedgeNode == node)) || cs.orphans[orphanKey{kept, node}] > 0 {
				keep = append(keep, kept)
			}
		}
		ids = keep
	}
	cs.byNode[node] = append(ids, id)
}

// newLease draws a lease from the free list (chain capacity retained,
// every other field zero) or allocates one.
func (cs *chaosState) newLease() *lease {
	l := cs.freeLease
	if l == nil {
		return &lease{}
	}
	cs.freeLease = l.nextFree
	l.nextFree = nil
	return l
}

// releaseLease returns a lease to the free list, zeroing everything but
// the chain's backing array. Callers must go through resolveLease or
// releaseIfResolved — releasing a lease something still points at would
// let a recycled lease spuriously satisfy a ledger identity check.
func (cs *chaosState) releaseLease(l *lease) {
	chain := l.chain[:0]
	*l = lease{chain: chain, nextFree: cs.freeLease}
	cs.freeLease = l
}

// resolveLease retires a lease that just went terminal — completed,
// terminally rejected, or redelivery-rejected — and recycles it unless
// a hedge offer on the wire still aliases it. That offer's fold is then
// the release point (releaseIfResolved); a lease whose fold cannot
// release it (voided again meanwhile, node < 0) leaks until the stream's
// chaosState is dropped — rare, bounded, and strictly safer than a
// false-positive ledger match on a recycled lease.
func (cs *chaosState) resolveLease(l *lease) {
	if l.hedgeInFlight {
		return
	}
	cs.releaseLease(l)
}

// releaseIfResolved is the hedge-fold release point: the fold just
// cleared hedgeInFlight and found the lease no longer its ledger entry.
// node >= 0 distinguishes a lease that went terminal while the hedge
// flew (safe to recycle — nothing else references it) from one that was
// voided into a redelivery (still live in pending or on the wire).
func (cs *chaosState) releaseIfResolved(l *lease) {
	if cs.ledger[l.id] != l && l.node >= 0 {
		cs.releaseLease(l)
	}
}

// open starts a fresh arrival's lease, held by no node until its
// first delivery is admitted, with the chain copied out of the request
// before the request is offered.
func (cs *chaosState) open(tr workload.TimedRequest, now sim.Time) *lease {
	l := cs.newLease()
	l.id = tr.Req.ID
	l.class = tr.Req.Class
	l.tenant = tr.Tenant
	l.chain = append(l.chain[:0], tr.Req.Chain...)
	l.node = -1
	l.voidedAt = now
	l.hedgeNode = -1
	return l
}

// park queues a lease that found no routable node for delivery on the
// next recovery.
func (cs *chaosState) park(l *lease) {
	cs.pending = append(cs.pending, l)
	cs.pendingPeak = max(cs.pendingPeak, len(cs.pending))
}

// leaseRequest materializes a fresh request object for a lease — from
// the arena when one is configured, allocated otherwise. The chain is
// always copied out of the lease: the object the lease originally rode
// in may have been recycled and re-leased by anyone since, so sharing
// backing arrays in either direction would alias live state.
func (cs *chaosState) leaseRequest(l *lease) *coe.Request {
	if cs.arena != nil {
		r := cs.arena.Lease()
		r.ID = l.id
		r.Class = l.class
		r.Chain = append(r.Chain[:0], l.chain...)
		return r
	}
	return coe.NewRequest(l.id, l.class, append([]coe.ExpertID(nil), l.chain...))
}

// verify asserts the exactly-once invariant at a fault boundary,
// recording (not panicking on) violations so Serve can fail the stream
// with the full list.
func (cs *chaosState) verify(now sim.Time, where string) {
	got := cs.completions + cs.terminalRejected + int64(len(cs.ledger)) + int64(len(cs.pending)) + cs.offersInFlight
	if got != cs.arrivals {
		cs.violations = append(cs.violations, fmt.Sprintf(
			"at %v (%s): completions %d + rejections %d + leased %d + pending %d + in-flight %d = %d, want arrivals %d",
			now.Duration(), where, cs.completions, cs.terminalRejected,
			len(cs.ledger), len(cs.pending), cs.offersInFlight, got, cs.arrivals))
	}
}

// applyFault fires one fault-plan event: the state transition on the
// node, lease voiding and redelivery for crashes, drain timing for
// drains, and pending-queue flushing for recoveries. The exactly-once
// invariant is checked after every event — the fault boundaries.
func (c *Cluster) applyFault(now sim.Time, ev sim.FaultEvent) {
	cs := c.chaos
	n := c.nodes[ev.Node]
	switch ev.Kind {
	case sim.FaultCrash:
		st := n.sys.State()
		if st == core.NodeDown {
			break
		}
		cs.crashes++
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
		for _, id := range cs.byNode[ev.Node] {
			if k := (orphanKey{id, ev.Node}); cs.orphans[k] > 0 {
				// This node holds orphaned copies — losers of hedge races,
				// or (over a nonzero hop) hedges admitted after their
				// lease resolved or was voided into a redelivery. They die
				// here (the node's own drop accounting records them) and
				// are no longer expected to surface as waste.
				cs.hedgesVoided += int64(cs.orphans[k])
				delete(cs.orphans, k)
			}
			l := cs.ledger[id]
			if l == nil {
				continue // resolved since
			}
			if l.node != ev.Node {
				if l.hedgeNode == ev.Node {
					// The hedge copy dies with this node; the primary keeps
					// the lease and may hedge again after a fresh deadline.
					l.hedgeNode = -1
					cs.hedgesVoided++
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
				cs.hedgePromoted++
				cs.hedgesVoided++
				c.armHedge(l, c.hedge.After)
				continue
			}
			c.cancelHedge(l)
			delete(cs.ledger, id)
			l.node = -1
			l.voidedAt = now
			voided = append(voided, l)
		}
		cs.byNode[ev.Node] = cs.byNode[ev.Node][:0]
		cs.lostLeases += int64(len(voided))
		if c.health != nil {
			c.health.resetNode(ev.Node)
		}
		n.sys.Crash(now)
		for i, l := range voided {
			if !c.redeliverOne(now, l) {
				// No routable node: this and every remaining lease park.
				cs.pending = append(cs.pending, voided[i:]...)
				break
			}
		}
		if len(cs.pending) > cs.pendingPeak {
			cs.pendingPeak = len(cs.pending)
		}
	case sim.FaultDrain:
		if n.sys.State() != core.NodeUp {
			break
		}
		cs.drains++
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
				cs.recoveries++
				n.sys.ClearGray()
			}
			break
		}
		cs.recoveries++
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
		cs.slows++
		n.sys.SetSlow(ev.Factor)
	case sim.FaultJitter:
		if n.sys.State() == core.NodeDown {
			break
		}
		cs.jitters++
		n.sys.SetJitter(ev.Factor, jitterSeed(ev))
	case sim.FaultStall:
		if n.sys.State() == core.NodeDown {
			break
		}
		cs.stalls++
		n.sys.Stall(now, ev.For)
	}
	cs.verify(now, fmt.Sprintf("%s node%d", ev.Kind, ev.Node))
	c.maybeClose()
}

// jitterSeed derives a jitter RNG seed from the event itself, so a
// jittery node's per-batch draw sequence is a pure function of the
// fault plan and runs stay byte-identical.
func jitterSeed(ev sim.FaultEvent) int64 {
	return int64(ev.Node+1)*1_000_000_007 + int64(ev.At)
}

// redeliverOne re-dispatches a voided (or parked) lease: it rebuilds
// the request and offers it over the Up subset. Reports false when no
// node is routable — the lease stays with the caller for the pending
// queue. A node-admission rejection is terminal: the request is gone,
// counted once, never double-counted in the fleet recorder (a lease
// that already counted as an arrival does not also count as a
// rejection).
func (c *Cluster) redeliverOne(now sim.Time, l *lease) bool {
	return c.offer(now, l, c.chaos.leaseRequest(l))
}

// flushPending delivers parked leases in order after a recovery,
// stopping (and keeping the rest parked) if the fleet goes unroutable
// again mid-flush.
func (c *Cluster) flushPending(now sim.Time) {
	cs := c.chaos
	if len(cs.pending) == 0 {
		return
	}
	rest := cs.pending[:0]
	for i, l := range cs.pending {
		if !c.redeliverOne(now, l) {
			rest = append(rest, cs.pending[i:]...)
			break
		}
	}
	for i := len(rest); i < len(cs.pending); i++ {
		cs.pending[i] = nil
	}
	cs.pending = rest
}
