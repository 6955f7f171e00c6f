package cluster

import (
	"fmt"
	"time"

	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Interconnect is a minimal model of the dispatch fabric between the
// cluster front end and its nodes: every offer, fold-back
// acknowledgment, and rejection crosses one hop whose latency is the
// shared Dispatch cost plus a topology class — IntraBoard for nodes on
// the front end's board, InterNode for everything else. It is the down
// payment on full hierarchical-interconnect modeling: one latency
// class per board tier, applied at the front-end/node seam only
// (intra-node traffic already runs under the per-device cost model).
//
// The hop latency only decides when each message of the offer/fold
// protocol below lands. The zero value charges zero hops: every
// message is delivered inline at the instant it is sent.
type Interconnect struct {
	// Dispatch is the base per-hop dispatch latency every offer and
	// acknowledgment pays regardless of destination.
	Dispatch time.Duration
	// IntraBoard is the additional hop cost to nodes sharing the front
	// end's board (node indices below BoardSize).
	IntraBoard time.Duration
	// InterNode is the additional hop cost to nodes on other boards.
	InterNode time.Duration
	// BoardSize is how many nodes share the front end's board; zero (or
	// negative) places every node on the front end's board, so only
	// Dispatch + IntraBoard applies.
	BoardSize int
}

// Enabled reports whether any latency component is configured, i.e.
// whether protocol messages take time to land.
func (ic Interconnect) Enabled() bool {
	return ic.Dispatch > 0 || ic.IntraBoard > 0 || ic.InterNode > 0
}

// NodeLatency is the one-way hop latency between the front end and
// node i.
func (ic Interconnect) NodeLatency(i int) time.Duration {
	hop := ic.IntraBoard
	if ic.BoardSize > 0 && i >= ic.BoardSize {
		hop = ic.InterNode
	}
	return ic.Dispatch + hop
}

// validate checks the model for a fleet of the given size: an enabled
// interconnect must charge a positive hop to every node, so no offer
// or fold lands at the instant it was sent.
func (ic Interconnect) validate(nodes int) error {
	if ic.Dispatch < 0 || ic.IntraBoard < 0 || ic.InterNode < 0 {
		return fmt.Errorf("cluster: Interconnect latencies must be >= 0 (Dispatch %v, IntraBoard %v, InterNode %v)",
			ic.Dispatch, ic.IntraBoard, ic.InterNode)
	}
	if !ic.Enabled() {
		return nil
	}
	for i := 0; i < nodes; i++ {
		if hop := ic.NodeLatency(i); hop <= 0 {
			return fmt.Errorf("cluster: enabled Interconnect needs a positive hop latency to every node (node %d: %v); give Dispatch or the hop class of the nearest node a positive value", i, hop)
		}
	}
	return nil
}

// Every request reaches a node and reports back through one offer/fold
// protocol over the lease ledger:
//
//	front end ── offer ──▶ node
//	node      ── fold  ──▶ front end
//
// The offer carries the request to the node, where it is either
// bounced (node not Up), rejected by node admission, or admitted; the
// outcome folds back to the front end and only then touches the lease
// ledger, the fleet recorder, health scoring, and the hedge timers.
// send delivers a message inline when the node's hop latency is zero
// and otherwise posts it one hop ahead on the cluster's environment.
//
// Once an offer hands the request to the node, the node owns it and
// recycles it on rejection, completion, or crash-void: the accept,
// reject, and completion folds read only the lease, the receipt, and
// the request ID. Only a bounced request, which never reached
// admission, comes back to the front end.
//
// Control verbs — fault injection, drains, restarts, stream close —
// call into node state directly at the current instant. Only the
// request path pays the modeled interconnect hops.
//
// Every hop is a pooled message drawn from one free list, so the
// steady-state offer→accept→completion cycle allocates nothing: each
// delivered message is freed before its handler runs and immediately
// reused for the next hop.

// msgOp selects a message's handler — the protocol's full verb set.
type msgOp uint8

const (
	opOffer      msgOp = iota // front end → node: deliver a request to admission
	opAccept                  // node → front end: admission succeeded, receipt enclosed
	opReject                  // node → front end: admission refused
	opBounce                  // node → front end: node not Up, request unopened
	opCompletion              // node → front end: request finished, ack the lease
	opHedgeDue                // front end → front end: a lease's hedge deadline expired
)

// message is the pooled hop payload: one union for every protocol
// verb. hedge marks the offer (and its fold) of a lease's speculative
// second copy; every other offer is a delivery of the lease itself,
// its first when the lease has no arrival yet and a redelivery after.
// r rides only on offers and bounces, receipt only on accepts, and id
// names the request of a completion or an expired hedge deadline.
type message struct {
	c       *Cluster
	op      msgOp
	hedge   bool
	idx     int // node index: offer target, or fold origin
	id      int64
	r       *coe.Request
	l       *lease
	receipt core.Lease
	next    *message // free-list link
}

// Deliver implements sim.Message: the kernel invokes it at the hop's
// arrival instant.
func (m *message) Deliver(at sim.Time) { m.c.deliverMsg(m, at) }

// newMsg draws a message from the free list and addresses it.
func (c *Cluster) newMsg(op msgOp, idx int, hedge bool, l *lease) *message {
	m := c.msgFree
	if m == nil {
		m = &message{c: c}
	} else {
		c.msgFree = m.next
		m.next = nil
	}
	m.op, m.idx, m.hedge, m.l = op, idx, hedge, l
	return m
}

// freeMsg returns a delivered message to the free list, clearing
// payload pointers so the list pins nothing.
func (c *Cluster) freeMsg(m *message) {
	m.r, m.l = nil, nil
	m.receipt = core.Lease{}
	m.next = c.msgFree
	c.msgFree = m
}

// send moves m across the hop between the front end and node m.idx:
// inline when the hop is free, as a timed event one hop from now
// otherwise.
func (c *Cluster) send(now sim.Time, m *message) {
	if hop := c.latency[m.idx]; hop > 0 {
		c.env.PostMsg(now.Add(hop), m)
		return
	}
	c.deliverMsg(m, now)
}

// deliverMsg unpacks and dispatches one protocol message, freeing it
// before the handler runs so a handler that immediately sends the next
// hop (nodeOffer folding the outcome back, a fold routing the next
// offer) reuses the very message that carried this one.
func (c *Cluster) deliverMsg(m *message, at sim.Time) {
	op, hedge, idx, id, r, l, receipt := m.op, m.hedge, m.idx, m.id, m.r, m.l, m.receipt
	c.freeMsg(m)
	switch op {
	case opOffer:
		c.nodeOffer(at, idx, hedge, r, l)
	case opAccept, opReject, opBounce:
		if hedge {
			c.hedgeFold(at, op, idx, r, l, receipt)
		} else {
			c.deliveryFold(at, op, idx, r, l, receipt)
		}
	case opCompletion:
		c.completionFold(at, idx, id)
	case opHedgeDue:
		c.fireHedge(at, id)
	}
}

// offer routes lease l's request r to a node and sends the offer.
// The offer owns the outcome from here — acceptance, terminal
// rejection, and bounce-driven re-routing all land as folds — so the
// caller only learns whether a routable node existed at this instant;
// on false r is recycled and the caller parks the lease. A redelivery
// offers a request rebuilt from the lease's chain copy (leaseRequest).
func (c *Cluster) offer(now sim.Time, l *lease, r *coe.Request) bool {
	idx := c.pickNode(now, r)
	if idx < 0 {
		coe.Recycle(r)
		return false
	}
	c.postOffer(now, idx, false, r, l)
	return true
}

// postOffer sends request r of lease l toward node idx. The offer is
// tracked until its fold lands, so exactly-once verification and
// stream close account for it: a delivery carries the request's
// accounting token (its lease is in neither the ledger nor the pending
// queue meanwhile), a hedge offer carries only duplicate work.
func (c *Cluster) postOffer(now sim.Time, idx int, hedge bool, r *coe.Request, l *lease) {
	c.routed[idx]++
	if hedge {
		l.hedgeInFlight = true
		c.ledger.hedgeOffers++
	} else {
		c.ledger.offersInFlight++
	}
	m := c.newMsg(opOffer, idx, hedge, l)
	m.r = r
	c.send(now, m)
}

// nodeOffer runs at the offer's arrival instant (now) on node idx. It
// reads and advances only node-local state, and reports the outcome
// with a fold sent back.
func (c *Cluster) nodeOffer(now sim.Time, idx int, hedge bool, r *coe.Request, l *lease) {
	sys := c.nodes[idx].sys
	if sys.State() != core.NodeUp {
		// The node went down or started draining while the offer was on
		// the wire: bounce it back unopened for the front end to
		// re-route.
		m := c.newMsg(opBounce, idx, hedge, l)
		m.r = r
		c.send(now, m)
		return
	}
	receipt, ok := sys.Offer(now, workload.TimedRequest{Req: r, Tenant: l.tenant})
	if !ok {
		c.send(now, c.newMsg(opReject, idx, hedge, l))
		return
	}
	m := c.newMsg(opAccept, idx, hedge, l)
	m.receipt = receipt
	c.send(now, m)
}

// deliveryFold lands the outcome of a delivery — a lease's first offer
// or a redelivery — on the front end, where the lease ledger, fleet
// recorder, health scoring, and hedge arming advance.
//   - A bounce (the node was not Up on arrival) never reached
//     admission, so the front end still owns the request and re-routes
//     it, parking the lease when nothing is routable.
//   - A rejection is terminal and counted once.
//   - An admission whose receipt predates the node's current epoch was
//     voided by a crash while its fold was on the wire: the crash's
//     lease walk could not see the copy, and the crash purged it (or
//     voids it when its batch unwinds). It counts as admitted and
//     voided at this instant, and is redelivered or parked.
//   - Any other admission makes node idx the lease's holder.
func (c *Cluster) deliveryFold(now sim.Time, op msgOp, idx int, r *coe.Request, l *lease, receipt core.Lease) {
	lg := c.ledger
	lg.offersInFlight--
	switch {
	case op == opBounce:
		lg.stats.Bounced++
		if !c.offer(now, l, r) {
			lg.park(l)
		}
	case op == opReject:
		lg.terminalRejected++
		if l.hasArrival {
			lg.stats.RedeliveredRejected++
		} else {
			c.recorder.Rejection(now)
		}
		lg.resolveLease(l)
	case receipt.Epoch != c.nodes[idx].sys.Epoch():
		c.landed(now, l, receipt)
		l.voidedAt = now
		lg.stats.LostLeases++
		if !c.offer(now, l, lg.leaseRequest(l)) {
			lg.park(l)
		}
	default:
		c.landed(now, l, receipt)
		l.node = idx
		lg.live[l.id] = l
		lg.track(idx, l.id)
		if h := c.health; h != nil {
			h.onAdmit(idx)
		}
		c.armHedge(l, c.hedge.After)
	}
	c.maybeClose()
}

// landed counts a delivery's admission: the first one starts the
// lease's latency clock and counts as a fleet arrival, a later one is
// a redelivery.
func (c *Cluster) landed(now sim.Time, l *lease, receipt core.Lease) {
	if l.hasArrival {
		c.ledger.stats.Redelivered++
		l.redeliveries++
		return
	}
	l.hasArrival = true
	l.arrival = receipt.Issued
	c.recorder.Arrival(now)
}

// hedgeFold lands the outcome of a lease's speculative second copy.
// While the lease is live (held by a node, not resolved or voided
// since the hedge fired), a bounce or rejection re-arms the deadline
// with backoff, a copy a crash voided on the wire counts as fired and
// voided and the deadline re-arms, and an admission makes node idx the
// hedge holder. A copy admitted after its lease resolved or was voided
// into a redelivery is a fired hedge nobody tracks a lease for: it is
// recorded as an orphan on its node, so its completion counts as hedge
// waste, exactly like a lost race, and a crash of the node as a voided
// hedge.
func (c *Cluster) hedgeFold(now sim.Time, op msgOp, idx int, r *coe.Request, l *lease, receipt core.Lease) {
	lg := c.ledger
	lg.hedgeOffers--
	l.hedgeInFlight = false
	live := lg.live[l.id] == l && l.node >= 0
	switch {
	case op == opBounce:
		lg.stats.Bounced++
		coe.Recycle(r)
		if live {
			c.rearmHedge(l)
		}
	case op == opReject:
		lg.stats.HedgeRejected++
		if live {
			c.rearmHedge(l)
		}
	case receipt.Epoch != c.nodes[idx].sys.Epoch():
		lg.stats.HedgesFired++
		lg.stats.HedgesVoided++
		if live {
			c.armHedge(l, c.hedge.After)
		}
	default:
		lg.stats.HedgesFired++
		if live && l.hedgeNode < 0 {
			l.hedgeNode = idx
			if h := c.health; h != nil {
				h.onAdmit(idx)
			}
		} else {
			lg.addOrphan(l.id, idx)
		}
		lg.track(idx, l.id)
	}
	lg.releaseIfResolved(l)
	c.maybeClose()
}

// completionFold resolves node idx's completion of request id against
// the lease ledger. First fold wins: it resolves the lease, records
// the fleet completion (latency spans first node admission to this
// fold, return hop included), and schedules the loser of any hedge
// race as waste. Folds from holders the ledger no longer tracks — a
// copy that completed on a node after its lease was voided and
// redelivered, which only a nonzero hop can produce — count as
// duplicate acks, never as completions.
func (c *Cluster) completionFold(now sim.Time, idx int, id int64) {
	lg := c.ledger
	l := lg.live[id]
	if l == nil || (idx != l.node && idx != l.hedgeNode) {
		if lg.takeOrphan(id, idx) {
			lg.stats.HedgeWasted++
		} else {
			lg.stats.DupAcks++
		}
		return
	}
	c.cancelHedge(l)
	if l.hedgeNode >= 0 {
		// A race was on: record the loser's holder so its late
		// completion counts as hedge waste, not as a duplicate ack.
		if idx == l.hedgeNode {
			lg.stats.HedgeWins++
			lg.addOrphan(id, l.node)
		} else {
			lg.addOrphan(id, l.hedgeNode)
		}
	}
	if h := c.health; h != nil {
		h.onComplete(idx, now.Sub(l.arrival).Seconds())
	}
	delete(lg.live, id)
	lg.completions++
	c.recorder.Completion(l.arrival, now)
	if l.redeliveries > 0 {
		d := now.Sub(l.voidedAt)
		lg.failoverSum += d
		lg.failoverN++
		lg.stats.FailoverMax = max(lg.stats.FailoverMax, d)
	}
	lg.resolveLease(l)
	if c.draining > 0 {
		c.checkDrains(now)
	}
	c.maybeClose()
}
