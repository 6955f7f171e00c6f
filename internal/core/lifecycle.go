package core

import (
	"repro/internal/sim"
)

// NodeState is a joined system's lifecycle state on the cluster seam.
// A standalone system (NewSystem + Serve) is always NodeUp; the cluster
// layer's fault injection drives the transitions.
type NodeState int

const (
	// NodeUp: the node accepts offered work and serves normally.
	NodeUp NodeState = iota
	// NodeDraining: the node accepts no new work but finishes what it
	// already holds — the graceful removal path.
	NodeDraining
	// NodeDown: the node crashed. Queued work was voided (handed back to
	// the lease holder for redelivery), executors have exited, and Offer
	// refuses arrivals until Restart.
	NodeDown
)

func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDraining:
		return "draining"
	case NodeDown:
		return "down"
	}
	return "unknown"
}

// Lease is the receipt Offer returns for an admitted request: the node
// holds the request until it acks completion through the stream
// delegate's RequestDone, and a crash voids every outstanding lease so
// the dispatcher can redeliver the requests elsewhere. The receipt
// identifies the request and the node that holds it; the dispatcher
// keys its ledger on Request (request identity survives redelivery, so
// completions can be counted exactly once).
type Lease struct {
	// Request is the leased request's identity (coe.Request.ID).
	Request int64
	// Node is the holding node's Config.ID.
	Node string
	// Issued is the virtual instant the node admitted the request.
	Issued sim.Time
	// Epoch is the node's crash epoch at admission (see Epoch). A
	// receipt whose epoch is behind the node's current one was voided by
	// a crash: the node no longer holds the request.
	Epoch int
}

// State reports the node's lifecycle state.
func (s *System) State() NodeState { return s.state }

// Epoch reports the node's crash epoch, which advances on every crash.
// It is the executors' Epoch hook — an executor mid-batch at the crash
// instant discards the batch's results instead of acking voided work —
// and it stamps every lease receipt (Lease.Epoch).
func (s *System) Epoch() int { return s.epoch }

// Serving reports whether the system currently has a stream open (Serve
// in progress, or JoinStream without its StreamReport yet).
func (s *System) Serving() bool { return s.serving }

// Outstanding reports the number of admitted requests not yet completed
// or dropped — the node's in-flight count, the drain-completion signal.
func (s *System) Outstanding() int64 {
	if s.ctrl == nil {
		return 0
	}
	return s.ctrl.admitted - s.ctrl.completed - s.ctrl.dropped
}

// Dropped reports the number of admitted requests voided by crashes so
// far in the current stream.
func (s *System) Dropped() int64 {
	if s.ctrl == nil {
		return 0
	}
	return s.ctrl.dropped
}

// Drain takes an Up node out of routing gracefully: the cluster stops
// offering it work and the node finishes what it holds. A no-op in any
// other state.
func (s *System) Drain() {
	if s.state == NodeUp {
		s.state = NodeDraining
	}
}

// Resume returns a Draining node to service. A no-op in any other state
// (a crashed node needs Restart).
func (s *System) Resume() {
	if s.state == NodeDraining {
		s.state = NodeUp
	}
}

// Crash kills the node abruptly: the state goes Down, the crash epoch
// advances (so executors mid-batch discard their results through the
// OnVoid path instead of acking voided work), every queued request is
// purged and dropped — recorded, recycled, and struck from the node's
// accounting so the stream can still finish exactly — and the executors
// are woken to observe the down state and exit. The requests a crash
// voids are the dispatcher's to redeliver: it held the leases. now is
// the current virtual time. Returns the number of requests dropped from
// the queues (in-flight batches surface as drops later, when their
// virtual execution unwinds).
func (s *System) Crash(now sim.Time) int {
	if s.state == NodeDown {
		return 0
	}
	s.state = NodeDown
	s.epoch++
	// A crash wipes gray degradation with everything else: the restart
	// comes back at full speed (a persistent fault is scripted as a
	// fresh gray event after the recover).
	s.gray = nil
	if s.ctrl == nil || s.ctrl.finished {
		return 0
	}
	n := 0
	for _, q := range s.queues {
		for _, r := range q.Purge() {
			s.ctrl.drop(now, r)
			n++
		}
	}
	for _, q := range s.queues {
		q.Gate().Notify()
	}
	return n
}

// Restart returns a crashed node to service: the state goes Up and — if
// a stream is still open — a fresh run of every executor is launched
// (the crashed epoch's runs exited, or will exit the moment they
// observe the epoch change). The node rejoins routing with
// empty queues; its pools keep whatever the crash left resident, the
// warm-restart analogue of a machine coming back with its disk intact.
func (s *System) Restart() {
	if s.state != NodeDown {
		return
	}
	s.state = NodeUp
	if s.serving && s.ctrl != nil && !s.ctrl.finished {
		for _, ex := range s.executors {
			ex.Start(s.env)
		}
	}
}
