package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// acquire takes a unit of res for process p, parking while none is
// free: a woken waiter competes again, exactly as the Message contract
// asks.
func acquire(res *Resource, p *Proc) {
	for !res.Acquire(p) {
		p.Park()
	}
}

func TestClockStartsAtZero(t *testing.T) {
	env := NewEnv()
	if env.Now() != 0 {
		t.Fatalf("new env clock = %v, want 0", env.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv()
	var woke Time
	env.Go("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second)
		woke = p.Now()
	})
	end := env.Run()
	if woke != Time(3*time.Second) {
		t.Errorf("woke at %v, want 3s", woke)
	}
	if end != Time(3*time.Second) {
		t.Errorf("Run returned %v, want 3s", end)
	}
}

func TestSequentialSleeps(t *testing.T) {
	env := NewEnv()
	var marks []Time
	env.Go("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Second)
			marks = append(marks, p.Now())
		}
	})
	env.Run()
	want := []Time{Time(time.Second), Time(2 * time.Second), Time(3 * time.Second)}
	if len(marks) != len(want) {
		t.Fatalf("got %d marks, want %d", len(marks), len(want))
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Errorf("mark %d = %v, want %v", i, marks[i], want[i])
		}
	}
}

func TestParallelProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			env.Go(name, func(p *Proc) {
				p.Sleep(time.Second)
				order = append(order, name+"1")
				p.Sleep(time.Second)
				order = append(order, name+"2")
			})
		}
		env.Run()
		return order
	}
	first := run()
	want := []string{"a1", "b1", "c1", "a2", "b2", "c2"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 5; trial++ {
		again := run()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("nondeterministic order: %v vs %v", again, first)
			}
		}
	}
}

func TestAfterCallback(t *testing.T) {
	env := NewEnv()
	var at Time
	env.After(5*time.Millisecond, func() { at = env.Now() })
	env.Run()
	if at != Time(5*time.Millisecond) {
		t.Errorf("callback at %v, want 5ms", at)
	}
}

func TestAfterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative delay")
		}
	}()
	NewEnv().After(-time.Second, func() {})
}

func TestEventBroadcast(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	var woke []string
	for _, name := range []string{"w1", "w2"} {
		name := name
		env.Go(name, func(p *Proc) {
			ev.Wait(p)
			p.Park()
			woke = append(woke, name)
		})
	}
	env.Go("firer", func(p *Proc) {
		p.Sleep(time.Second)
		ev.Fire()
	})
	env.Run()
	if len(woke) != 2 || woke[0] != "w1" || woke[1] != "w2" {
		t.Errorf("woke = %v, want [w1 w2]", woke)
	}
	if !ev.Fired() {
		t.Error("event not marked fired")
	}
}

func TestEventWaitAfterFireReturnsImmediately(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	ev.Fire()
	var at Time
	env.Go("late", func(p *Proc) {
		p.Sleep(time.Second)
		ev.Wait(p)
		p.Park()
		at = p.Now()
	})
	env.Run()
	if at != Time(time.Second) {
		t.Errorf("late waiter resumed at %v, want 1s", at)
	}
}

func TestEventDoubleFireIsNoop(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	ev.Fire()
	ev.Fire() // must not panic
}

func TestGateReusable(t *testing.T) {
	env := NewEnv()
	g := NewGate(env)
	var wakes int
	env.Go("waiter", func(p *Proc) {
		for i := 0; i < 3; i++ {
			g.Wait(p)
			p.Park()
			wakes++
		}
	})
	env.Go("notifier", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Second)
			g.Notify()
		}
	})
	env.Run()
	if wakes != 3 {
		t.Errorf("wakes = %d, want 3", wakes)
	}
}

func TestResourceMutualExclusion(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "gpu", 1)
	var spans [][2]Time
	for i := 0; i < 3; i++ {
		env.Go("user", func(p *Proc) {
			acquire(res, p)
			start := p.Now()
			p.Sleep(time.Second)
			res.Release(p)
			spans = append(spans, [2]Time{start, p.Now()})
		})
	}
	env.Run()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i][0] < spans[i-1][1] {
			t.Errorf("span %d starts at %v before previous ends at %v", i, spans[i][0], spans[i-1][1])
		}
	}
	if res.BusyTime() != 3*time.Second {
		t.Errorf("busy time = %v, want 3s", res.BusyTime())
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "bus", 2)
	var finished []Time
	for i := 0; i < 4; i++ {
		env.Go("user", func(p *Proc) {
			acquire(res, p)
			p.Sleep(time.Second)
			res.Release(p)
			finished = append(finished, p.Now())
		})
	}
	end := env.Run()
	if end != Time(2*time.Second) {
		t.Errorf("4 unit jobs on cap-2 resource finished at %v, want 2s", end)
	}
	if len(finished) != 4 {
		t.Fatalf("finished = %d, want 4", len(finished))
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		env.Go("u", func(p *Proc) {
			// Stagger arrivals so the queue order is unambiguous.
			p.Sleep(time.Duration(i) * time.Millisecond)
			acquire(res, p)
			order = append(order, i)
			p.Sleep(time.Second)
			res.Release(p)
		})
	}
	env.Run()
	for i, got := range order {
		if got != i {
			t.Fatalf("service order = %v, want ascending", order)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	var first, second bool
	env.Go("p", func(p *Proc) {
		first = res.TryAcquire(p)
		second = res.TryAcquire(p)
		if first {
			res.Release(p)
		}
	})
	env.Run()
	if !first || second {
		t.Errorf("TryAcquire = %v, %v; want true, false", first, second)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	var recovered bool
	env.Go("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		res.Release(p)
	})
	env.Run()
	if !recovered {
		t.Error("no panic on unpaired Release")
	}
}

func TestRunDrainsBlockedProcesses(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	env.Go("stuck", func(p *Proc) {
		ev.Wait(p) // never fired
		p.Park()
		t.Error("stuck process resumed normally")
	})
	env.Run()
	if env.Procs() != 0 {
		t.Errorf("procs remaining = %d, want 0", env.Procs())
	}
	if !env.Terminated() {
		t.Error("env not terminated after Run")
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	env := NewEnv()
	var ticks int
	env.Go("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Second)
			ticks++
		}
	})
	got := env.RunUntil(Time(3500 * time.Millisecond))
	if ticks != 3 {
		t.Errorf("ticks = %d, want 3", ticks)
	}
	if got != Time(3500*time.Millisecond) {
		t.Errorf("RunUntil returned %v, want 3.5s", got)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	env := NewEnv()
	env.Go("p", func(p *Proc) { p.Sleep(time.Second) })
	env.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling in the past")
		}
	}()
	env.schedule(0, func() {})
}

func TestYieldLetsPeersRun(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("a", func(p *Proc) {
		order = append(order, "a-start")
		p.Yield()
		order = append(order, "a-end")
	})
	env.Go("b", func(p *Proc) {
		order = append(order, "b")
	})
	env.Run()
	want := []string{"a-start", "b", "a-end"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestEventHeapOrderProperty checks the (time, seq) dequeue invariant
// with random event sets.
func TestEventHeapOrderProperty(t *testing.T) {
	prop := func(times []int16) bool {
		var h eventHeap
		for i, raw := range times {
			at := Time(int64(raw)&0x7fff) * Time(time.Millisecond)
			heap.Push(&h, &event{at: at, seq: int64(i)})
		}
		lastAt := Time(-1)
		lastSeq := int64(-1)
		for h.Len() > 0 {
			ev := heap.Pop(&h).(*event)
			if ev.at < lastAt {
				return false
			}
			if ev.at == lastAt && ev.seq < lastSeq {
				return false
			}
			lastAt, lastSeq = ev.at, ev.seq
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRandomResourceWorkloadConserves checks that an arbitrary mix of
// sleeps and resource uses completes every process exactly once and
// never exceeds capacity.
func TestRandomResourceWorkloadConserves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		env := NewEnv()
		capN := 1 + rng.Intn(3)
		res := NewResource(env, "r", capN)
		n := 5 + rng.Intn(20)
		durs := make([]time.Duration, n)
		for i := range durs {
			durs[i] = time.Duration(1+rng.Intn(1000)) * time.Millisecond
		}
		completed := 0
		maxInUse := 0
		for i := 0; i < n; i++ {
			d := durs[i]
			env.Go("w", func(p *Proc) {
				p.Sleep(d / 2)
				acquire(res, p)
				if res.InUse() > maxInUse {
					maxInUse = res.InUse()
				}
				p.Sleep(d)
				res.Release(p)
				completed++
			})
		}
		env.Run()
		if completed != n {
			t.Fatalf("trial %d: completed %d of %d", trial, completed, n)
		}
		if maxInUse > capN {
			t.Fatalf("trial %d: in-use %d exceeded capacity %d", trial, maxInUse, capN)
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Errorf("Seconds = %v, want 1.5", tm.Seconds())
	}
	if tm.Sub(Time(time.Second)) != 500*time.Millisecond {
		t.Errorf("Sub = %v, want 500ms", tm.Sub(Time(time.Second)))
	}
	if tm.Duration() != 1500*time.Millisecond {
		t.Errorf("Duration = %v", tm.Duration())
	}
	if tm.String() != "1.5s" {
		t.Errorf("String = %q", tm.String())
	}
}

func TestReopenRunsSecondRound(t *testing.T) {
	env := NewEnv()
	var order []string
	env.Go("first", func(p *Proc) {
		p.Sleep(time.Second)
		order = append(order, "first")
	})
	env.Run()
	if !env.Terminated() {
		t.Fatal("env not terminated after Run")
	}
	env.Reopen()
	if env.Terminated() {
		t.Fatal("env still terminated after Reopen")
	}
	// The clock continues: the second round starts where the first ended.
	env.Go("second", func(p *Proc) {
		p.Sleep(time.Second)
		order = append(order, "second")
	})
	end := env.Run()
	if end != Time(2*time.Second) {
		t.Errorf("clock = %v after second round, want 2s", end)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("order = %v", order)
	}
}

func TestReopenBeforeDrainPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Reopen on a fresh env did not panic")
		}
	}()
	NewEnv().Reopen()
}

func TestCancelRevokesPendingTimer(t *testing.T) {
	env := NewEnv()
	fired := false
	tm := env.AfterFunc(time.Second, func() { fired = true })
	if !env.Cancel(tm) {
		t.Fatal("Cancel of a pending timer returned false")
	}
	env.Run()
	if fired {
		t.Error("cancelled callback still ran")
	}
	// A second cancel of the same handle is a no-op.
	if env.Cancel(tm) {
		t.Error("double Cancel returned true")
	}
}

func TestCancelAfterFireReturnsFalse(t *testing.T) {
	env := NewEnv()
	fired := 0
	tm := env.AfterFunc(time.Second, func() { fired++ })
	env.Run()
	if fired != 1 {
		t.Fatalf("callback ran %d times, want 1", fired)
	}
	if env.Cancel(tm) {
		t.Error("Cancel after fire returned true")
	}
}

// TestCancelStaleHandleDoesNotKillReusedEvent pins the pooled-event
// generation guard: a handle whose event fired and was recycled into a
// new timer must not cancel the new timer.
func TestCancelStaleHandleDoesNotKillReusedEvent(t *testing.T) {
	env := NewEnv()
	stale := env.AfterFunc(time.Second, func() {})
	env.Run()

	env.Reopen()
	fired := false
	env.AfterFunc(time.Second, func() { fired = true })
	if env.Cancel(stale) {
		t.Error("stale handle cancelled something")
	}
	env.Run()
	if !fired {
		t.Error("stale Cancel revoked a reused event's callback")
	}
}

func TestCancelZeroTimer(t *testing.T) {
	if NewEnv().Cancel(Timer{}) {
		t.Error("Cancel of zero Timer returned true")
	}
}

// TestCancelInterleavedKeepsOrdering cancels one of three timers and
// checks the survivors fire in timestamp order.
func TestCancelInterleavedKeepsOrdering(t *testing.T) {
	env := NewEnv()
	var order []string
	env.AfterFunc(1*time.Second, func() { order = append(order, "a") })
	b := env.AfterFunc(2*time.Second, func() { order = append(order, "b") })
	env.AfterFunc(3*time.Second, func() { order = append(order, "c") })
	if !env.Cancel(b) {
		t.Fatal("Cancel failed")
	}
	env.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "c" {
		t.Errorf("order = %v, want [a c]", order)
	}
}

// TestHeapPopClearsIndex pins the invariant Cancel relies on: an event
// leaving the heap must not keep a stale index.
func TestHeapPopClearsIndex(t *testing.T) {
	var h eventHeap
	evs := []*event{{at: 1, seq: 1}, {at: 2, seq: 2}, {at: 3, seq: 3}}
	for _, ev := range evs {
		heap.Push(&h, ev)
	}
	for h.Len() > 0 {
		ev := heap.Pop(&h).(*event)
		if ev.index != -1 {
			t.Fatalf("popped event seq %d kept heap index %d", ev.seq, ev.index)
		}
	}
}

// TestSleepSteadyStateAllocations pins the pooled, closure-free kernel
// hot path: a full ping-pong workload (1000 sleeps across 4 processes)
// must stay well under the ~2 allocations per sleep the closure-based
// kernel paid. The budget covers environment construction, goroutine
// stacks, and heap growth — not per-sleep garbage.
func TestSleepSteadyStateAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		env := NewEnv()
		for i := 0; i < 4; i++ {
			env.Go("p", func(p *Proc) {
				for s := 0; s < 250; s++ {
					p.Sleep(time.Millisecond)
				}
			})
		}
		env.Run()
	})
	if allocs > 200 {
		t.Errorf("kernel workload allocated %.0f objects, want <= 200 (was ~2000 before event pooling)", allocs)
	}
}

// TestEventPoolReuseAcrossReopen checks warm restarts reuse the free
// list: a second identical round on a reopened environment should not
// allocate per-event.
func TestEventPoolReuseAcrossReopen(t *testing.T) {
	env := NewEnv()
	round := func() {
		for i := 0; i < 100; i++ {
			env.After(time.Duration(i)*time.Millisecond, func() {})
		}
		env.Run()
	}
	round()
	env.Reopen()
	allocs := testing.AllocsPerRun(1, func() {
		round()
		env.Reopen()
	})
	if allocs > 10 {
		t.Errorf("reopened round allocated %.0f objects, want <= 10", allocs)
	}
}

func TestCancelAcrossEnvironmentsPanics(t *testing.T) {
	a, b := NewEnv(), NewEnv()
	tm := a.AfterFunc(time.Second, func() {})
	defer func() {
		if recover() == nil {
			t.Error("no panic cancelling another environment's timer")
		}
	}()
	b.Cancel(tm)
}

// pingMsg is a pooled Message for the PostMsg tests: each delivery logs
// itself and, while hops remain, re-posts the same carrier one hop on.
type pingMsg struct {
	env  *Env
	id   int
	hops int
	log  *[]string
}

func (m *pingMsg) Deliver(at Time) {
	if at != m.env.Now() {
		panic("PostMsg delivered off its timestamp")
	}
	if m.log != nil {
		*m.log = append(*m.log, fmt.Sprintf("m%d@%v", m.id, at))
	}
	if m.hops > 0 {
		m.hops--
		m.env.PostMsg(at.Add(time.Millisecond), m)
	}
}

// TestPostMsgOrdersWithCallbacks: messages and callbacks share one
// (time, schedule order) queue, so equal-time events fire exactly in
// the order they were posted, whatever their kind.
func TestPostMsgOrdersWithCallbacks(t *testing.T) {
	env := NewEnv()
	var log []string
	env.PostMsg(Time(time.Millisecond), &pingMsg{env: env, id: 1, log: &log})
	env.After(time.Millisecond, func() { log = append(log, "f@1ms") })
	env.PostMsg(Time(time.Millisecond), &pingMsg{env: env, id: 2, log: &log})
	env.PostMsg(0, &pingMsg{env: env, id: 0, hops: 1, log: &log})
	env.Run()
	want := []string{"m0@0s", "m1@1ms", "f@1ms", "m2@1ms", "m0@1ms"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("delivery order %v, want %v", log, want)
	}
}

// TestPostMsgSteadyStateAllocations: a pooled message hopping through
// the queue allocates nothing per hop — the event is pooled by the
// kernel and the payload by its sender.
func TestPostMsgSteadyStateAllocations(t *testing.T) {
	env := NewEnv()
	m := &pingMsg{env: env}
	round := func() {
		m.hops = 1000
		env.PostMsg(env.Now(), m)
		env.Run()
		env.Reopen()
	}
	round()
	if allocs := testing.AllocsPerRun(3, round); allocs > 0 {
		t.Errorf("1000 message hops allocated %.0f objects, want 0", allocs)
	}
}

// waiterMsg is a Message waiter that logs its deliveries and then runs
// an optional follow-up at the delivery instant.
type waiterMsg struct {
	name string
	log  *[]string
	then func()
}

func (w *waiterMsg) Deliver(at Time) {
	*w.log = append(*w.log, fmt.Sprintf("%s@%v", w.name, at))
	if w.then != nil {
		w.then()
	}
}

// TestGateAndEventPostWaitersInOrder: Notify and Fire post their
// Message waiters at the current instant in FIFO order, behind events
// already scheduled for that instant; a waiter queued on a fired Event
// is posted at once.
func TestGateAndEventPostWaitersInOrder(t *testing.T) {
	env := NewEnv()
	var log []string
	g, ev := NewGate(env), NewEvent(env)
	g.Wait(&waiterMsg{name: "g1", log: &log})
	g.Wait(&waiterMsg{name: "g2", log: &log})
	ev.Wait(&waiterMsg{name: "e1", log: &log})
	env.After(time.Second, func() {
		env.After(0, func() { log = append(log, "cb@1s") })
		g.Notify()
		ev.Fire()
		ev.Wait(&waiterMsg{name: "late", log: &log})
	})
	env.Run()
	want := []string{"cb@1s", "g1@1s", "g2@1s", "e1@1s", "late@1s"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("delivery order %v, want %v", log, want)
	}
	if g.Waiting() != 0 {
		t.Errorf("gate still holds %d waiters", g.Waiting())
	}
}

// TestResourceWokenWaiterReacquires: a release posts the head waiter
// without reserving the unit for it, so an owner that takes the unit
// before the waiter runs wins, and the woken waiter's Acquire queues it
// again at the tail — exactly a blocked process's re-check loop.
func TestResourceWokenWaiterReacquires(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	var log []string
	a := &waiterMsg{name: "a", log: &log}
	c := &waiterMsg{name: "c", log: &log}
	b := &waiterMsg{name: "b", log: &log}
	b.then = func() {
		if res.Acquire(b) {
			log = append(log, "b-holds")
			res.Release(b)
		}
	}
	if !res.Acquire(a) || res.Acquire(b) {
		t.Fatal("a should hold the unit and b queue behind it")
	}
	env.After(time.Second, func() {
		res.Release(a) // posts b
		if !res.Acquire(c) {
			t.Error("c could not take the unit b was woken for")
		}
		env.After(time.Second, func() { res.Release(c) })
	})
	env.Run()
	want := []string{"b@1s", "b@2s", "b-holds"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	if res.InUse() != 0 || res.QueueLen() != 0 {
		t.Errorf("in use %d, queued %d; want 0, 0", res.InUse(), res.QueueLen())
	}
	if res.BusyTime() != 2*time.Second {
		t.Errorf("busy time %v, want 2s (a for 1s, c for 1s, b for 0s)", res.BusyTime())
	}
}
