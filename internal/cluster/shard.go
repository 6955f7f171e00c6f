package cluster

import (
	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file is the cluster's side of the sharded event kernel: with
// Config.Interconnect enabled, the front end runs in the coordinator
// partition and every node's core.System in its own worker partition,
// so node partitions simulate in parallel under the kernel's
// conservative lookahead. The synchronous Offer seam cannot exist in
// that world — admitting into a node would advance its state from the
// coordinator's clock — so routing becomes an asynchronous
// offer/fold protocol made of timed cross-partition events:
//
//	coordinator ── offer @ now+latency ──▶ node partition
//	node        ── fold  @ now+latency ──▶ coordinator
//
// The offer carries the request into the node's partition, where it is
// either bounced (node not Up), rejected by node admission, or
// admitted; the outcome folds back to the coordinator one hop later
// and only then touches the lease ledger, the fleet recorder, health
// scoring, and the hedge timers. Every coordinator-side structure —
// ledger, arena, recorder, router scratch — therefore stays owned by
// partition 0, and node partitions touch only their own state plus the
// request object the offer handed them.
//
// Control verbs flow the other way without events at all: a
// coordinator event runs only when every node partition has advanced
// past its timestamp with nothing pending before it, so fault
// injection, drains, restarts, and stream close may call into node
// state directly — the call is race-free and lands at the node's
// current logical instant. Only the request path pays the modeled
// interconnect hops.
//
// Every hop is a pooled shardMsg — one typed union covering the whole
// protocol (offers out; accept/reject/bounce/completion/recycle folds
// back) — drawn from per-partition free lists via sim.PosterPartition
// and released into the delivering partition's list, so the
// steady-state offer→accept→completion cycle allocates nothing: the
// offer's message is freed into the node's list and immediately reused
// for the fold, the fold's into the coordinator's and reused for the
// next offer.
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

// shardOp selects a shardMsg's handler — the cross-partition protocol's
// full verb set.
type shardOp uint8

const (
	opOffer      shardOp = iota // coordinator → node: deliver a request to admission
	opAccept                    // node → coordinator: admission succeeded, receipt enclosed
	opReject                    // node → coordinator: admission refused
	opBounce                    // node → coordinator: node not Up, request unopened
	opCompletion                // node → coordinator: request finished, ack the lease
	opRecycle                   // node → coordinator: return a dropped request to the arena
)

// shardMsg is the pooled cross-partition event payload: one union for
// every protocol hop, so a free list of them serves the entire
// interconnect path. Fields beyond op are populated per-verb; receipt
// only rides on opAccept.
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

// Deliver implements sim.Message: the kernel invokes it in the target
// partition at the scheduled instant.
func (m *shardMsg) Deliver(at sim.Time) { m.c.deliverMsg(m, at) }

// newMsg draws a message from partition part's free list. part must be
// the partition whose goroutine is executing (sim.PosterPartition) —
// the lists are unsynchronized by design.
func (c *Cluster) newMsg(part int) *shardMsg {
	m := c.msgFree[part]
	if m == nil {
		return &shardMsg{c: c}
	}
	c.msgFree[part] = m.next
	m.next = nil
	return m
}

// freeMsg returns a delivered message to partition part's free list,
// clearing payload pointers so the list pins nothing.
func (c *Cluster) freeMsg(part int, m *shardMsg) {
	m.r, m.l = nil, nil
	m.tenant = ""
	m.receipt = core.Lease{}
	m.next = c.msgFree[part]
	c.msgFree[part] = m
}

// deliverMsg unpacks and dispatches one protocol hop, freeing the
// message before the handler runs so a handler that immediately posts
// the next hop (nodeOffer folding the outcome back, a fold routing the
// next offer) reuses the very message that carried this one.
//
// Which list a message frees into is what keeps every list in balance
// over the steady offer → accept fold → completion fold cycle: the
// node's list supplies two folds per request but receives only the
// offer's carcass, and the coordinator's supplies one offer but
// receives two carcasses. So the offer frees into its node's list (the
// only safe choice mid-round anyway), the admission folds
// (accept/reject/bounce) free into the coordinator's — restocking the
// next offer — and the completion fold returns to its origin node's
// list, closing the loop at zero net drift. Folds run as coordinator
// events, which never overlap a worker round, so touching a node's
// list there is race-free under the kernel's control-verb contract.
func (c *Cluster) deliverMsg(m *shardMsg, at sim.Time) {
	op, kind, idx, r, tenant, l, receipt := m.op, m.kind, m.idx, m.r, m.tenant, m.l, m.receipt
	if op == opOffer {
		c.freeMsg(1+idx, m)
		c.nodeOffer(at, idx, kind, r, tenant, l)
		return
	}
	if op == opCompletion {
		c.freeMsg(1+idx, m)
	} else {
		c.freeMsg(0, m)
	}
	switch op {
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

// postOffer dispatches a request toward node idx as a timed
// cross-partition event arriving one hop from now. The in-flight offer
// is tracked so exactly-once verification and stream close account for
// requests that are currently on the wire: a primary or redelivery
// offer carries the request's accounting token (it is in neither the
// ledger nor the pending queue while it flies), a hedge offer carries
// only duplicate work. l is the lease a redelivery or hedge offer
// belongs to, nil for primaries.
//
// Offers always originate in coordinator context — routing, bounce
// re-routes, redelivery, and hedge timers all run on partition 0 — so
// the message comes from the coordinator's free list unconditionally.
func (c *Cluster) postOffer(now sim.Time, idx int, kind offerKind, r *coe.Request, tenant string, l *lease) {
	cs := c.chaos
	c.routed[idx]++
	if kind == offerHedge {
		cs.hedgeOffers++
	} else {
		cs.offersInFlight++
	}
	m := c.newMsg(0)
	m.op, m.kind, m.idx = opOffer, kind, idx
	m.r, m.tenant, m.l = r, tenant, l
	c.kernel.PostMsg(c.env, 1+idx, now.Add(c.latency[idx]), m)
}

// postFold posts a fold verb from node idx's partition to the
// coordinator, one hop after now. Safe from both phases: during a node
// round it buffers in the partition outbox (the hop is >= the kernel
// lookahead by construction) and the message comes from the node's
// free list; from coordinator context — crash purges calling the drop
// delegate — it inserts directly and draws from the coordinator's
// list. PosterPartition distinguishes the two.
func (c *Cluster) postFold(idx int, now sim.Time, op shardOp, kind offerKind, r *coe.Request, tenant string, l *lease, receipt core.Lease) {
	from := c.kernel.Part(1 + idx)
	m := c.newMsg(c.kernel.PosterPartition(from))
	m.op, m.kind, m.idx = op, kind, idx
	m.r, m.tenant, m.l, m.receipt = r, tenant, l, receipt
	c.kernel.PostMsg(from, 0, now.Add(c.latency[idx]), m)
}

// nodeOffer runs inside node idx's partition at the offer's arrival
// instant (now). It reads and advances only node-local state, and
// reports the outcome with a fold posted one hop back — at least the
// kernel's lookahead after the node's now, which is what licenses the
// node partitions to run concurrently.
func (c *Cluster) nodeOffer(now sim.Time, idx int, kind offerKind, r *coe.Request, tenant string, l *lease) {
	sys := c.nodes[idx].sys
	if sys.State() != core.NodeUp {
		// The node went down or started draining while the offer was on
		// the wire: bounce it back unopened for the coordinator to
		// re-route.
		c.postFold(idx, now, opBounce, kind, r, tenant, l, core.Lease{})
		return
	}
	receipt, ok := sys.OfferAt(now, workload.TimedRequest{Req: r, Tenant: tenant})
	if ok {
		c.postFold(idx, now, opAccept, kind, r, tenant, l, receipt)
	} else {
		c.postFold(idx, now, opReject, kind, r, "", l, core.Lease{})
	}
}

// acceptFold lands a successful admission on the coordinator: the
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

// rejectFold lands a node-admission refusal on the coordinator.
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
// never reached admission, so the coordinator re-routes it with
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

// foldCompletion ships node idx's completion ack back to the
// coordinator as a timed fold — the sharded replacement for the
// synchronous requestDone call. It runs in the node's partition (the
// stream delegate fires inside the node's controller), so it may only
// capture and post.
func (c *Cluster) foldCompletion(idx int, now sim.Time, r *coe.Request) {
	c.postFold(idx, now, opCompletion, 0, r, "", nil, core.Lease{})
}

// completionFold resolves a completion against the lease ledger on the
// coordinator, one hop after the node acked. First fold wins: it
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

// shardRedeliver is redeliverOne's sharded body: route the voided
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

// postRecycle returns a crash-voided request object to the coordinator
// one hop after the node dropped it — the DropDelegate path under
// ExternalRecycle. The node's own drop accounting already ran; the
// fold only recycles, because the arena belongs to partition 0.
func (c *Cluster) postRecycle(idx int, now sim.Time, r *coe.Request) {
	c.postFold(idx, now, opRecycle, 0, r, "", nil, core.Lease{})
}
