package cluster

import (
	"fmt"
	"time"

	"repro/internal/coe"
	"repro/internal/core"
	"repro/internal/sim"
)

// HedgeConfig enables per-request timeouts with hedged redelivery: a
// request still leased After past its admission is speculatively
// re-offered to a healthy node. First completion wins and resolves the
// lease; the loser's completion finds no lease and is counted as wasted
// work, never as a second completion — the exactly-once ledger from the
// chaos layer is what makes hedging safe to account.
type HedgeConfig struct {
	// After is the deadline budget: a lease older than this (and not
	// already hedged) fires a hedge. Zero disables hedging — the
	// byte-identical default.
	After time.Duration
	// MaxRetries bounds the re-arms when a hedge attempt finds no
	// eligible node or is refused by node admission; each retry backs
	// off exponentially (After, 2·After, 4·After, …). Default 3.
	MaxRetries int
}

// Enabled reports whether hedging is on.
func (h HedgeConfig) Enabled() bool { return h.After > 0 }

func (h HedgeConfig) withDefaults() HedgeConfig {
	if h.MaxRetries == 0 {
		h.MaxRetries = 3
	}
	return h
}

func (h HedgeConfig) validate() error {
	if h.After < 0 {
		return fmt.Errorf("cluster: Hedge.After must be >= 0, got %v", h.After)
	}
	if h.MaxRetries < 0 {
		return fmt.Errorf("cluster: Hedge.MaxRetries must be >= 0, got %d", h.MaxRetries)
	}
	return nil
}

// armHedge schedules the lease's deadline timer d from now. Every armed
// timer is cancelled when the lease resolves or its holder crashes, so
// no timer outlives its lease.
func (c *Cluster) armHedge(l *lease, d time.Duration) {
	if !c.hedge.Enabled() || l.timerSet {
		return
	}
	id := l.id
	l.timer = c.env.AfterFunc(d, func() { c.hedgeDue(id) })
	l.timerSet = true
}

// cancelHedge revokes a lease's pending deadline timer, if any.
func (c *Cluster) cancelHedge(l *lease) {
	if l.timerSet {
		c.env.Cancel(l.timer)
		l.timerSet = false
	}
}

// hedgeDue is the timer callback: the lease outlived its deadline
// budget. The re-offer itself runs from a pooled message posted at the
// current instant, behind the events already due now.
func (c *Cluster) hedgeDue(id int64) {
	cs := c.chaos
	l := cs.ledger[id]
	if l == nil || l.node < 0 || l.hedgeNode >= 0 || l.hedgeInFlight {
		return // resolved, voided, or already hedged since arming
	}
	l.timerSet = false
	m := c.newMsg(opHedgeDue, 0, false, nil)
	m.id = id
	c.env.PostMsg(c.env.Now(), m)
}

// fireHedge re-offers an overdue lease's request to a healthy node. On
// success the lease tracks both copies; whichever completes first
// resolves it and the other surfaces as wasted work. When no eligible
// node exists (or node admission refuses the copy) the primary keeps
// the lease untouched and the timer re-arms with exponential backoff,
// up to MaxRetries.
func (c *Cluster) fireHedge(now sim.Time, id int64) {
	cs := c.chaos
	l := cs.ledger[id]
	if l == nil || l.node < 0 || l.hedgeNode >= 0 || l.hedgeInFlight {
		return
	}
	// With the breaker armed, hedge only leases whose holder is actually
	// quarantined or probing. A deadline alone cannot tell a gray
	// failure from an honest queue — hedging every overdue request
	// under load duplicates most of the fleet's work and melts the
	// healthy nodes too — and a transient score dip short of a trip is
	// still ambiguous, so only the breaker's verdict releases a hedge.
	// Without health armed there is no such signal and the deadline is
	// trusted as-is.
	if h := c.health; h != nil && h.phase[l.node] == breakerClosed {
		c.rearmHedge(l)
		return
	}
	idx := c.pickHedgeNode(now, l)
	if idx < 0 {
		c.rearmHedge(l)
		return
	}
	// hedgesFired, the byNode entry, and the race state attach when the
	// accept fold lands; a refusal or bounce re-arms the deadline from
	// its fold. A hedge moves no lease between ledger states — one
	// arrival, one lease, still exactly one completion ahead — so the
	// invariant must hold unchanged at this boundary.
	c.postOffer(now, idx, true, cs.leaseRequest(l), l)
	cs.verify(now, fmt.Sprintf("hedge %d", id))
}

// rearmHedge backs the deadline off exponentially and re-arms it, or
// gives up after MaxRetries — the primary then simply keeps the lease.
func (c *Cluster) rearmHedge(l *lease) {
	if l.retries >= c.hedge.MaxRetries {
		return
	}
	l.retries++
	c.chaos.hedgeRetries++
	c.armHedge(l, c.hedge.After<<uint(l.retries))
}

// pickHedgeNode routes a hedge copy: the router chooses over Up nodes
// that are not the primary holder and — when the breaker is armed — not
// quarantined or probing. Returns -1 when no such node exists.
func (c *Cluster) pickHedgeNode(now sim.Time, l *lease) int {
	c.scratch = c.scratch[:0]
	c.scratchIdx = c.scratchIdx[:0]
	for i, n := range c.nodes {
		if i == l.node || n.sys.State() != core.NodeUp {
			continue
		}
		if c.health != nil && c.health.phase[i] != breakerClosed {
			continue
		}
		c.scratch = append(c.scratch, n)
		c.scratchIdx = append(c.scratchIdx, i)
	}
	if len(c.scratch) == 0 {
		return -1
	}
	// The router only reads the request (ID, class, chain), so the pick
	// runs against a reusable probe built from the lease's own chain
	// copy — no allocation, and the probe never reaches a queue.
	c.probe = coe.Request{ID: l.id, Class: l.class, Chain: l.chain}
	j := c.router.Pick(now, c.scratch, &c.probe)
	if j < 0 || j >= len(c.scratch) {
		panic(fmt.Sprintf("cluster: router %s picked node %d of %d hedge-eligible", c.router.Name(), j, len(c.scratch)))
	}
	return c.scratchIdx[j]
}
