package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"
)

// FaultKind is one node-lifecycle transition a fault plan can inject.
type FaultKind int

const (
	// FaultCrash kills a node abruptly: queued and in-flight work on it
	// is voided and must be redelivered by whoever dispatched it.
	FaultCrash FaultKind = iota
	// FaultDrain takes a node out of routing gracefully: it accepts no
	// new work but finishes what it already holds.
	FaultDrain
	// FaultRecover returns a crashed node to service, cancels a drain, or
	// clears a gray degradation (slow/jitter) from an otherwise-up node.
	FaultRecover

	// The kinds below are gray (performance) faults: the node stays Up
	// and keeps its state, but its executors run against scaled timings.
	// A gray fault is cleared by FaultRecover, replaced by a later gray
	// event on the same node, or wiped by a crash (restart resets it).

	// FaultSlow multiplies the node's per-batch service time by Factor
	// (> 1) until recovered — the classic fail-slow straggler.
	FaultSlow
	// FaultJitter inflates each batch's service time by a seeded random
	// factor uniform in [1, Factor] — noisy degradation rather than a
	// constant slowdown. The per-node RNG is seeded from the event, so
	// runs stay byte-identical.
	FaultJitter
	// FaultStall freezes the node for the window For: batches starting
	// inside the window do not finish before it ends. The node loses no
	// state and resumes by itself — no recover event is needed.
	FaultStall
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultDrain:
		return "drain"
	case FaultRecover:
		return "recover"
	case FaultSlow:
		return "slow"
	case FaultJitter:
		return "jitter"
	case FaultStall:
		return "stall"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// FaultEvent is one scheduled lifecycle transition: at offset At from the
// stream start, node Node undergoes Kind. Factor parameterizes the gray
// kinds FaultSlow and FaultJitter (service-time multiplier, > 1); For is
// FaultStall's freeze window. Both are zero for the fail-stop kinds.
type FaultEvent struct {
	At     time.Duration
	Node   int
	Kind   FaultKind
	Factor float64
	For    time.Duration
}

// FaultPlan is a deterministic schedule of node lifecycle transitions.
// The env owner (the cluster layer) fires the events from callbacks on
// the shared env (Start), so a given plan produces byte-identical runs.
// A nil or empty plan means no faults — the zero-fault configuration.
type FaultPlan struct {
	Events []FaultEvent
}

// Empty reports whether the plan injects nothing.
func (p *FaultPlan) Empty() bool { return p == nil || len(p.Events) == 0 }

// sortEvents orders the plan by time, breaking ties by declaration order
// (stable), so equal-instant events fire deterministically.
//
// The tie-break is load-bearing and part of the plan contract: two events
// at the same offset fire in the order they appear in Events *before the
// sort* — declaration order for scripted plans, per-node generation order
// for GenerateFaultPlan, and scripted-then-generated when a caller
// appends a generated schedule onto a scripted one. The stable sort
// (slices.SortStableFunc, never slices.SortFunc) is what preserves it;
// fault_test.go pins the guarantee for all three plan shapes.
func (p *FaultPlan) sortEvents() {
	slices.SortStableFunc(p.Events, func(a, b FaultEvent) int {
		return cmp.Compare(a.At, b.At)
	})
}

// Validate sorts the plan by event time (stable, so equal-instant events
// keep declaration order) and checks it against a fleet of nodes: every
// event must name a node in [0, nodes), carry a non-negative offset, and
// follow the per-node lifecycle state machine — starting Up, a node may
// crash (Up or Draining → Down), drain (Up → Draining), or recover
// (Down or Draining → Up, or clearing a gray degradation from an Up
// node). Gray kinds apply to any node that is not Down: slow and jitter
// need a finite Factor > 1 and mark the node degraded until a recover, a
// replacement gray event, or a crash; stall needs For > 0 and is
// self-clearing.
func (p *FaultPlan) Validate(nodes int) error {
	if p.Empty() {
		return nil
	}
	p.sortEvents()
	const (
		up = iota
		draining
		down
	)
	state := make([]int, nodes)
	degraded := make([]bool, nodes)
	for i, ev := range p.Events {
		if ev.Node < 0 || ev.Node >= nodes {
			return fmt.Errorf("sim: fault plan event %d names node %d outside fleet of %d", i, ev.Node, nodes)
		}
		if ev.At < 0 {
			return fmt.Errorf("sim: fault plan event %d (%s node %d) at negative offset %v", i, ev.Kind, ev.Node, ev.At)
		}
		s := state[ev.Node]
		switch ev.Kind {
		case FaultCrash:
			if s == down {
				return fmt.Errorf("sim: fault plan event %d crashes node %d which is already down", i, ev.Node)
			}
			state[ev.Node] = down
			degraded[ev.Node] = false
		case FaultDrain:
			if s != up {
				return fmt.Errorf("sim: fault plan event %d drains node %d which is not up", i, ev.Node)
			}
			state[ev.Node] = draining
		case FaultRecover:
			if s == up && !degraded[ev.Node] {
				return fmt.Errorf("sim: fault plan event %d recovers node %d which is already up", i, ev.Node)
			}
			state[ev.Node] = up
			degraded[ev.Node] = false
		case FaultSlow, FaultJitter:
			if s == down {
				return fmt.Errorf("sim: fault plan event %d applies %s to node %d which is down", i, ev.Kind, ev.Node)
			}
			if !(ev.Factor > 1) || math.IsInf(ev.Factor, 1) {
				return fmt.Errorf("sim: fault plan event %d (%s node %d) needs a finite Factor > 1, got %g", i, ev.Kind, ev.Node, ev.Factor)
			}
			degraded[ev.Node] = true
		case FaultStall:
			if s == down {
				return fmt.Errorf("sim: fault plan event %d stalls node %d which is down", i, ev.Node)
			}
			if ev.For <= 0 {
				return fmt.Errorf("sim: fault plan event %d (stall node %d) needs For > 0, got %v", i, ev.Node, ev.For)
			}
		default:
			return fmt.Errorf("sim: fault plan event %d has unknown kind %d", i, int(ev.Kind))
		}
	}
	return nil
}

// GenerateFaultPlan builds an MTBF-style schedule: each node alternates
// exponentially distributed up intervals (mean mtbf) and down intervals
// (mean mttr), crashing and recovering, until its next crash would fall
// past the horizon. A crash inside the horizon always gets its matching
// recover event — possibly past the horizon — so generated plans never
// strand voided work with the whole fleet down forever. The schedule is
// a pure function of its arguments (seeded math/rand), so a given
// configuration yields a byte-identical run.
func GenerateFaultPlan(nodes int, mtbf, mttr, horizon time.Duration, seed int64) (*FaultPlan, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("sim: GenerateFaultPlan needs at least one node, got %d", nodes)
	}
	if mtbf <= 0 || mttr <= 0 || horizon <= 0 {
		return nil, fmt.Errorf("sim: GenerateFaultPlan needs positive mtbf, mttr, and horizon (got %v, %v, %v)", mtbf, mttr, horizon)
	}
	rng := rand.New(rand.NewSource(seed))
	p := &FaultPlan{}
	for node := 0; node < nodes; node++ {
		t := time.Duration(0)
		for {
			t += time.Duration(rng.ExpFloat64() * float64(mtbf))
			if t >= horizon {
				break
			}
			p.Events = append(p.Events, FaultEvent{At: t, Node: node, Kind: FaultCrash})
			t += time.Duration(rng.ExpFloat64() * float64(mttr))
			p.Events = append(p.Events, FaultEvent{At: t, Node: node, Kind: FaultRecover})
			if t >= horizon {
				break
			}
		}
	}
	p.sortEvents()
	return p, nil
}

// Start arms the plan on env. Start posts a start event at the current
// instant; offsets count from that event's time, and each event is handed
// to fire from a callback at its offset. Offset-0 events fire inside the
// start event itself, and equal-offset events fire back to back at the
// same instant, in plan order. An empty plan posts nothing.
func (p *FaultPlan) Start(env *Env, fire func(FaultEvent)) {
	if p.Empty() {
		return
	}
	var start Time
	next := 0
	var step func()
	step = func() {
		for ; next < len(p.Events); next++ {
			ev := p.Events[next]
			if wait := start.Add(ev.At).Sub(env.Now()); wait > 0 {
				env.After(wait, step)
				return
			}
			fire(ev)
		}
	}
	env.After(0, func() {
		start = env.Now()
		step()
	})
}
