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
// Enabling the interconnect turns routing into the timed offer/fold
// protocol below: each hop is a pooled event scheduled one hop latency
// ahead on the cluster's single environment. The zero value disables
// the model entirely — offers stay synchronous, byte-identical to the
// latency-free cluster.
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

// Enabled reports whether any latency component is configured — the
// switch that engages the timed offer/fold protocol.
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

// With the interconnect enabled the synchronous Offer seam is replaced
// by an asynchronous offer/fold protocol of timed events on the
// cluster's one environment:
//
//	front end ── offer @ now+latency ──▶ node
//	node      ── fold  @ now+latency ──▶ front end
//
// The offer carries the request to the node, where it is either
// bounced (node not Up), rejected by node admission, or admitted; the
// outcome folds back to the front end one hop later and only then
// touches the lease ledger, the fleet recorder, health scoring, and the
// hedge timers. Request objects stay front-end owned
// (core.Config.ExternalRecycle): the accept fold reads the request
// one hop after admission, so a node hands requests back through
// completion and drop folds instead of recycling them.
//
// Control verbs — fault injection, drains, restarts, stream close —
// call into node state directly at the current instant. Only the
// request path pays the modeled interconnect hops.
//
// Every hop is a pooled shardMsg — one typed union covering the whole
// protocol (offers out; accept/reject/bounce/completion/recycle folds
// back) — drawn from one free list and scheduled through send, so the
// steady-state offer→accept→completion cycle allocates nothing: each
// delivered message is freed before its handler runs and immediately
// reused for the next hop.

// offerKind says which delivery of a request an offer carries.
type offerKind int

const (
	// offerPrimary is a fresh arrival's first delivery.
	offerPrimary offerKind = iota
	// offerRedeliver re-delivers a crash-voided (or parked) lease.
	offerRedeliver
	// offerHedge delivers the speculative second copy of a leased
	// request whose deadline expired.
	offerHedge
)

// shardOp selects a shardMsg's handler — the protocol's full verb set.
type shardOp uint8

const (
	opOffer      shardOp = iota // front end → node: deliver a request to admission
	opAccept                    // node → front end: admission succeeded, receipt enclosed
	opReject                    // node → front end: admission refused
	opBounce                    // node → front end: node not Up, request unopened
	opCompletion                // node → front end: request finished, ack the lease
	opRecycle                   // node → front end: return a dropped request to the arena
)

// shardMsg is the pooled hop payload: one union for every protocol
// hop, so a single free list of them serves the entire interconnect
// path. Fields beyond op are populated per-verb; receipt only rides on
// opAccept.
type shardMsg struct {
	c       *Cluster
	op      shardOp
	kind    offerKind
	idx     int // node index: offer target, or fold origin
	r       *coe.Request
	tenant  string
	l       *lease
	receipt core.Lease
	next    *shardMsg // free-list link
}

// Deliver implements sim.Message: the kernel invokes it at the hop's
// arrival instant.
func (m *shardMsg) Deliver(at sim.Time) { m.c.deliverMsg(m, at) }

// newMsg draws a message from the free list.
func (c *Cluster) newMsg() *shardMsg {
	m := c.msgFree
	if m == nil {
		return &shardMsg{c: c}
	}
	c.msgFree = m.next
	m.next = nil
	return m
}

// freeMsg returns a delivered message to the free list, clearing
// payload pointers so the list pins nothing.
func (c *Cluster) freeMsg(m *shardMsg) {
	m.r, m.l = nil, nil
	m.tenant = ""
	m.receipt = core.Lease{}
	m.next = c.msgFree
	c.msgFree = m
}

// send schedules m to arrive one hop from now. Offers and folds
// alike cross the hop between the front end and node m.idx.
func (c *Cluster) send(now sim.Time, m *shardMsg) {
	c.env.PostMsg(now.Add(c.latency[m.idx]), m)
}

// deliverMsg unpacks and dispatches one protocol hop, freeing the
// message before the handler runs so a handler that immediately posts
// the next hop (nodeOffer folding the outcome back, a fold routing the
// next offer) reuses the very message that carried this one.
func (c *Cluster) deliverMsg(m *shardMsg, at sim.Time) {
	op, kind, idx, r, tenant, l, receipt := m.op, m.kind, m.idx, m.r, m.tenant, m.l, m.receipt
	c.freeMsg(m)
	switch op {
	case opOffer:
		c.nodeOffer(at, idx, kind, r, tenant, l)
	case opAccept:
		c.acceptFold(at, idx, kind, r, tenant, l, receipt)
	case opReject:
		c.rejectFold(at, idx, kind, r, l)
	case opBounce:
		c.bounceFold(at, idx, kind, r, tenant, l)
	case opCompletion:
		c.completionFold(at, idx, r)
	case opRecycle:
		coe.Recycle(r)
	}
}

// postOffer dispatches a request toward node idx as a timed event
// arriving one hop from now. The in-flight offer is tracked so
// exactly-once verification and stream close account for requests that are currently on the wire: a primary or redelivery
// offer carries the request's accounting token (it is in neither the
// ledger nor the pending queue while it flies), a hedge offer carries
// only duplicate work. l is the lease a redelivery or hedge offer
// belongs to, nil for primaries.
func (c *Cluster) postOffer(now sim.Time, idx int, kind offerKind, r *coe.Request, tenant string, l *lease) {
	cs := c.chaos
	c.routed[idx]++
	if kind == offerHedge {
		cs.hedgeOffers++
	} else {
		cs.offersInFlight++
	}
	m := c.newMsg()
	m.op, m.kind, m.idx = opOffer, kind, idx
	m.r, m.tenant, m.l = r, tenant, l
	c.send(now, m)
}

// postFold posts a fold verb from node idx to the front end, one hop
// after now.
func (c *Cluster) postFold(idx int, now sim.Time, op shardOp, kind offerKind, r *coe.Request, tenant string, l *lease, receipt core.Lease) {
	m := c.newMsg()
	m.op, m.kind, m.idx = op, kind, idx
	m.r, m.tenant, m.l, m.receipt = r, tenant, l, receipt
	c.send(now, m)
}

// nodeOffer runs at the offer's arrival instant (now) on node idx. It
// reads and advances only node-local state, and reports the outcome
// with a fold posted one hop back.
func (c *Cluster) nodeOffer(now sim.Time, idx int, kind offerKind, r *coe.Request, tenant string, l *lease) {
	sys := c.nodes[idx].sys
	if sys.State() != core.NodeUp {
		// The node went down or started draining while the offer was on
		// the wire: bounce it back unopened for the front end to
		// re-route.
		c.postFold(idx, now, opBounce, kind, r, tenant, l, core.Lease{})
		return
	}
	receipt, ok := sys.Offer(now, workload.TimedRequest{Req: r, Tenant: tenant})
	if ok {
		c.postFold(idx, now, opAccept, kind, r, tenant, l, receipt)
	} else {
		c.postFold(idx, now, opReject, kind, r, "", l, core.Lease{})
	}
}

// acceptFold lands a successful admission on the front end: the
// lease ledger, fleet recorder, health scoring, and hedge arming all
// advance here, one hop after the node issued the receipt.
func (c *Cluster) acceptFold(now sim.Time, idx int, kind offerKind, r *coe.Request, tenant string, l *lease, receipt core.Lease) {
	if receipt.Epoch != c.nodes[idx].sys.Epoch() {
		c.crashedAcceptFold(now, idx, kind, r, tenant, l, receipt)
		return
	}
	cs := c.chaos
	switch kind {
	case offerPrimary:
		cs.offersInFlight--
		c.recorder.Arrival(now)
		nl := cs.open(idx, receipt, workload.TimedRequest{Req: r, Tenant: tenant}, now)
		c.armHedge(nl, c.hedge.After)
		if h := c.health; h != nil {
			h.onAdmit(idx)
		}
	case offerRedeliver:
		cs.offersInFlight--
		if l.hasArrival {
			cs.redelivered++
			l.redeliveries++
		} else {
			l.hasArrival = true
			l.arrival = receipt.Issued
			c.recorder.Arrival(now)
		}
		l.node = idx
		cs.ledger[l.id] = l
		cs.byNode[idx] = append(cs.byNode[idx], l.id)
		if h := c.health; h != nil {
			h.onAdmit(idx)
		}
		c.armHedge(l, c.hedge.After)
	case offerHedge:
		cs.hedgeOffers--
		l.hedgeInFlight = false
		if cs.ledger[l.id] == l && l.node >= 0 && l.hedgeNode < 0 {
			cs.hedgesFired++
			l.hedgeNode = idx
			cs.byNode[idx] = append(cs.byNode[idx], l.id)
			if h := c.health; h != nil {
				h.onAdmit(idx)
			}
		} else {
			// The lease resolved — or was voided into a redelivery — while
			// the hedge flew. The node admitted a duplicate nobody tracks a
			// lease for: it is a fired hedge all the same. Record it as an
			// orphan on its node so its completion counts as hedge waste,
			// exactly like a lost hedge race, and a crash of the node as a
			// voided hedge.
			cs.hedgesFired++
			cs.addOrphan(r.ID, idx)
			cs.byNode[idx] = append(cs.byNode[idx], r.ID)
			cs.releaseIfResolved(l)
		}
	}
	c.maybeClose()
}

// crashedAcceptFold lands an admission that a crash voided while its
// fold was on the wire: the crash's lease walk could not see the copy,
// and the crash purged it (or voids it when its batch unwinds). A
// primary or redelivery opens its lease as voided at this instant and
// is redelivered, or parked when nothing is routable; a hedge copy
// counts as fired and voided, and its lease may hedge again. The
// request object is only read here: the node's drop fold (or, when
// the copy completed before the crash, its completion fold) owns it.
func (c *Cluster) crashedAcceptFold(now sim.Time, idx int, kind offerKind, r *coe.Request, tenant string, l *lease, receipt core.Lease) {
	cs := c.chaos
	switch kind {
	case offerPrimary:
		cs.offersInFlight--
		c.recorder.Arrival(now)
		l = cs.open(idx, receipt, workload.TimedRequest{Req: r, Tenant: tenant}, now)
	case offerRedeliver:
		cs.offersInFlight--
		if l.hasArrival {
			cs.redelivered++
			l.redeliveries++
		} else {
			l.hasArrival = true
			l.arrival = receipt.Issued
			c.recorder.Arrival(now)
		}
	case offerHedge:
		cs.hedgeOffers--
		l.hedgeInFlight = false
		cs.hedgesFired++
		cs.hedgesVoided++
		if cs.ledger[l.id] == l && l.node >= 0 {
			c.armHedge(l, c.hedge.After)
		} else {
			cs.releaseIfResolved(l)
		}
		c.maybeClose()
		return
	}
	delete(cs.ledger, l.id)
	l.node = -1
	l.voidedAt = now
	cs.lostLeases++
	if !c.shardRedeliver(now, l) {
		cs.pending = append(cs.pending, l)
		if len(cs.pending) > cs.pendingPeak {
			cs.pendingPeak = len(cs.pending)
		}
	}
	c.maybeClose()
}

// rejectFold lands a node-admission refusal on the front end.
// Rejection of a primary or first delivery is terminal and counted
// once; a hedge refusal re-arms the deadline with backoff, exactly as
// in the synchronous path.
func (c *Cluster) rejectFold(now sim.Time, idx int, kind offerKind, r *coe.Request, l *lease) {
	cs := c.chaos
	switch kind {
	case offerPrimary:
		cs.offersInFlight--
		c.recorder.Rejection(now)
		cs.terminalRejected++
	case offerRedeliver:
		cs.offersInFlight--
		cs.terminalRejected++
		if l.hasArrival {
			cs.redeliveredRejected++
		} else {
			c.recorder.Rejection(now)
		}
		cs.resolveLease(l)
	case offerHedge:
		cs.hedgeOffers--
		l.hedgeInFlight = false
		cs.hedgeRejected++
		if cs.ledger[l.id] == l && l.node >= 0 {
			c.rearmHedge(l)
		} else {
			cs.releaseIfResolved(l)
		}
	}
	coe.Recycle(r)
	c.maybeClose()
}

// bounceFold lands an offer that found its node not Up: the request
// never reached admission, so the front end re-routes it with
// current knowledge — re-picking for primaries and redeliveries
// (parking when nothing is routable), re-arming the deadline for
// hedges.
func (c *Cluster) bounceFold(now sim.Time, idx int, kind offerKind, r *coe.Request, tenant string, l *lease) {
	cs := c.chaos
	cs.bounced++
	switch kind {
	case offerPrimary:
		cs.offersInFlight--
		if j := c.pickNode(now, r); j >= 0 {
			c.postOffer(now, j, offerPrimary, r, tenant, nil)
			return
		}
		cs.park(workload.TimedRequest{Req: r, Tenant: tenant}, now)
	case offerRedeliver:
		cs.offersInFlight--
		if j := c.pickNode(now, r); j >= 0 {
			c.postOffer(now, j, offerRedeliver, r, tenant, l)
			return
		}
		cs.pending = append(cs.pending, l)
		if len(cs.pending) > cs.pendingPeak {
			cs.pendingPeak = len(cs.pending)
		}
	case offerHedge:
		cs.hedgeOffers--
		l.hedgeInFlight = false
		if cs.ledger[l.id] == l && l.node >= 0 {
			c.rearmHedge(l)
		} else {
			cs.releaseIfResolved(l)
		}
	}
	coe.Recycle(r)
	c.maybeClose()
}

// foldCompletion ships node idx's completion ack back to the front end
// as a timed fold — the interconnect's replacement for the synchronous
// requestDone call.
func (c *Cluster) foldCompletion(idx int, now sim.Time, r *coe.Request) {
	c.postFold(idx, now, opCompletion, 0, r, "", nil, core.Lease{})
}

// completionFold resolves a completion against the lease ledger on the
// front end, one hop after the node acked. First fold wins: it
// resolves the lease, records the fleet completion (latency spans
// first node admission to this fold, return hop included), and
// schedules the loser of any hedge race as waste. Folds from holders
// the ledger no longer tracks — a copy that completed on a node after
// its lease was voided and redelivered, a race the synchronous path
// cannot express — count as duplicate acks, never as completions.
func (c *Cluster) completionFold(now sim.Time, idx int, r *coe.Request) {
	cs := c.chaos
	l := cs.ledger[r.ID]
	if l == nil || (idx != l.node && idx != l.hedgeNode) {
		if cs.takeOrphan(r.ID, idx) {
			cs.hedgeWasted++
		} else {
			cs.dupAcks++
		}
		coe.Recycle(r)
		return
	}
	c.cancelHedge(l)
	if l.hedgeNode >= 0 {
		if idx == l.hedgeNode {
			cs.hedgeWins++
			cs.addOrphan(r.ID, l.node)
		} else {
			cs.addOrphan(r.ID, l.hedgeNode)
		}
	}
	if h := c.health; h != nil {
		h.onComplete(idx, now.Sub(l.arrival).Seconds())
	}
	delete(cs.ledger, r.ID)
	cs.completions++
	c.recorder.Completion(l.arrival, now)
	if l.redeliveries > 0 {
		d := now.Sub(l.voidedAt)
		cs.failoverSum += d
		cs.failoverN++
		if d > cs.failoverMax {
			cs.failoverMax = d
		}
	}
	cs.resolveLease(l)
	coe.Recycle(r)
	if c.draining > 0 {
		c.checkDrains(now)
	}
	c.maybeClose()
}

// shardRedeliver is redeliverOne's interconnect body: route the voided
// lease and post the offer. The offer owns the outcome from here —
// acceptance, terminal rejection, and bounce-driven re-routing all
// land as folds — so the caller only learns whether a routable node
// existed at this instant (false parks the lease, exactly like the
// synchronous path).
func (c *Cluster) shardRedeliver(now sim.Time, l *lease) bool {
	cs := c.chaos
	r := cs.leaseRequest(l)
	idx := c.pickNode(now, r)
	if idx < 0 {
		coe.Recycle(r)
		return false
	}
	c.postOffer(now, idx, offerRedeliver, r, l.tenant, l)
	return true
}

// postRecycle returns a crash-voided request object to the front end
// one hop after the node dropped it — the DropDelegate path under
// ExternalRecycle. The node's own drop accounting already ran; the
// fold only recycles, because the front end owns the request.
func (c *Cluster) postRecycle(idx int, now sim.Time, r *coe.Request) {
	c.postFold(idx, now, opRecycle, 0, r, "", nil, core.Lease{})
}
