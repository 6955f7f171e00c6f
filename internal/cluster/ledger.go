package cluster

import (
	"fmt"
	"time"

	"repro/internal/coe"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ledger is the lease ledger: the durable-delivery bookkeeping of one
// stream. The cluster front end is the lease holder: every arrival it
// admits opens a lease (with a private copy of the request's expert
// chain — once offered, the request object belongs to the node, which
// recycles it into its arena when it completes, is rejected, or is
// voided by a crash), completions resolve leases exactly once, and a
// crash voids the dead node's leases so their requests can be
// redelivered to surviving nodes.
type ledger struct {
	arena *coe.Arena // redelivered requests lease from here when set

	// live maps a live lease's request ID to its record; byNode holds
	// each node's lease IDs in admission order, so a crash voids (and
	// redelivers) them deterministically — never by map iteration, whose
	// order would differ run to run. Entries in byNode go stale when a
	// lease resolves or moves; the crash walk skips them, and track
	// compacts them away before a node's list grows.
	live   map[int64]*lease
	byNode [][]int64

	// pending holds voided (or never-delivered) leases waiting for a
	// routable node, in void order; flushed on every recovery.
	pending []*lease

	// freeLease heads the lease free list: resolved leases recycle here
	// (chain capacity retained, across streams too) so a lease costs no
	// allocation in steady state. Release is gated on aliasing: see
	// resolveLease.
	freeLease *lease

	srcClosed bool

	// Exactly-once accounting: at every fault boundary,
	// arrivals == completions + terminalRejected + len(live) + len(pending)
	//           + offersInFlight.
	// The last term is nonzero only over a nonzero hop: a delivery on
	// the wire holds its request's accounting token until the fold
	// lands it in one of the other buckets. hedgeOffers tracks
	// in-flight hedge copies separately — duplicates carry no token but
	// still gate stream close.
	arrivals         int64 // requests the source yielded
	completions      int64 // lease-resolved completions (each request once)
	terminalRejected int64 // requests rejected with no lease left open
	offersInFlight   int64 // deliveries on the wire
	hedgeOffers      int64 // hedge offers on the wire
	violations       []string

	// orphans counts, by request and holding node, the copies no lease
	// tracks: the loser of a hedge race surfaces as wasted work when it
	// completes (or as a voided hedge when a crash takes it first),
	// never as a second completion. Every fired hedge therefore ends
	// exactly once as wasted or voided.
	orphans map[orphanKey]int

	failoverSum time.Duration
	failoverN   int64

	// stats is where the ledger counts what the fleet report publishes:
	// the fault kinds, lost, redelivered and bounced leases, duplicate
	// acks, the pending peak, the failover maximum, and the hedge
	// outcomes. report copies it whole.
	stats Report
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
func (lg *ledger) addOrphan(id int64, node int) {
	lg.orphans[orphanKey{id, node}]++
}

// takeOrphan consumes one orphaned copy of request id on node,
// reporting whether there was one.
func (lg *ledger) takeOrphan(id int64, node int) bool {
	k := orphanKey{id, node}
	switch n := lg.orphans[k]; n {
	case 0:
		return false
	case 1:
		delete(lg.orphans, k)
	default:
		lg.orphans[k] = n - 1
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

func newLedger(nodes int, arena *coe.Arena) *ledger {
	return &ledger{
		arena:   arena,
		live:    make(map[int64]*lease),
		byNode:  make([][]int64, nodes),
		orphans: make(map[orphanKey]int),
	}
}

// reset readies the ledger for a new stream: every counter and queue
// empties, while the maps, the byNode lists, and the lease free list
// keep their storage.
func (lg *ledger) reset() {
	clear(lg.live)
	clear(lg.orphans)
	for i := range lg.byNode {
		lg.byNode[i] = lg.byNode[i][:0]
	}
	*lg = ledger{
		arena:     lg.arena,
		live:      lg.live,
		byNode:    lg.byNode,
		orphans:   lg.orphans,
		freeLease: lg.freeLease,
	}
}

// track appends lease id to node's crash-walk list. Before the list
// grows it is compacted in order down to the entries a crash walk
// would act on — a live lease whose primary or hedge copy is on the
// node, or an orphan there — so the lists stay proportional to the
// work in flight rather than to the stream.
func (lg *ledger) track(node int, id int64) {
	ids := lg.byNode[node]
	if len(ids) == cap(ids) {
		keep := ids[:0]
		for _, kept := range ids {
			l := lg.live[kept]
			if (l != nil && (l.node == node || l.hedgeNode == node)) || lg.orphans[orphanKey{kept, node}] > 0 {
				keep = append(keep, kept)
			}
		}
		ids = keep
	}
	lg.byNode[node] = append(ids, id)
}

// newLease draws a lease from the free list (chain capacity retained,
// every other field zero) or allocates one.
func (lg *ledger) newLease() *lease {
	l := lg.freeLease
	if l == nil {
		return &lease{}
	}
	lg.freeLease = l.nextFree
	l.nextFree = nil
	return l
}

// releaseLease returns a lease to the free list, zeroing everything but
// the chain's backing array. Callers must go through resolveLease or
// releaseIfResolved — releasing a lease something still points at would
// let a recycled lease spuriously satisfy a ledger identity check.
func (lg *ledger) releaseLease(l *lease) {
	chain := l.chain[:0]
	*l = lease{chain: chain, nextFree: lg.freeLease}
	lg.freeLease = l
}

// resolveLease retires a lease that just went terminal — completed,
// terminally rejected, or redelivery-rejected — and recycles it unless
// a hedge offer on the wire still aliases it. That offer's fold is then
// the release point (releaseIfResolved); a lease whose fold cannot
// release it (voided again meanwhile, node < 0) never returns to the
// free list and is left to the garbage collector — rare, bounded, and
// strictly safer than a false-positive ledger match on a recycled lease.
func (lg *ledger) resolveLease(l *lease) {
	if l.hedgeInFlight {
		return
	}
	lg.releaseLease(l)
}

// releaseIfResolved is the hedge-fold release point: the fold just
// cleared hedgeInFlight. A lease that is no longer its live entry and
// still has node >= 0 went terminal while the hedge flew (safe to
// recycle — nothing else references it); node < 0 means it was voided
// into a redelivery (still live in pending or on the wire). A live
// lease is left alone.
func (lg *ledger) releaseIfResolved(l *lease) {
	if lg.live[l.id] != l && l.node >= 0 {
		lg.releaseLease(l)
	}
}

// open starts a fresh arrival's lease, held by no node until its
// first delivery is admitted, with the chain copied out of the request
// before the request is offered.
func (lg *ledger) open(tr workload.TimedRequest, now sim.Time) *lease {
	l := lg.newLease()
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
func (lg *ledger) park(l *lease) {
	lg.pending = append(lg.pending, l)
	lg.stats.PendingPeak = max(lg.stats.PendingPeak, len(lg.pending))
}

// leaseRequest materializes a fresh request object for a lease — from
// the arena when one is configured, allocated otherwise. The chain is
// always copied out of the lease: the object the lease originally rode
// in may have been recycled and re-leased by anyone since, so sharing
// backing arrays in either direction would alias live state.
func (lg *ledger) leaseRequest(l *lease) *coe.Request {
	if lg.arena != nil {
		r := lg.arena.Lease()
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
func (lg *ledger) verify(now sim.Time, where string) {
	got := lg.completions + lg.terminalRejected + int64(len(lg.live)) + int64(len(lg.pending)) + lg.offersInFlight
	if got != lg.arrivals {
		lg.violations = append(lg.violations, fmt.Sprintf(
			"at %v (%s): completions %d + rejections %d + leased %d + pending %d + in-flight %d = %d, want arrivals %d",
			now.Duration(), where, lg.completions, lg.terminalRejected,
			len(lg.live), len(lg.pending), lg.offersInFlight, got, lg.arrivals))
	}
}
