package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// task is a test Message driven as a continuation: each delivery runs
// the step it currently points at. A pointer, it can own a Resource
// unit and wait on any primitive that queues Message waiters.
type task struct{ step func() }

func (k *task) Deliver(Time) { k.step() }

// acquire takes a unit of res for k and then runs then. While no unit
// is free k stays queued, and a woken k competes again, exactly as the
// Message contract asks.
func acquire(res *Resource, k *task, then func()) {
	k.step = func() {
		if res.Acquire(k) {
			then()
		}
	}
	k.step()
}

// loop arms fn as a periodic callback the way the cold-path loops do: a
// start event at the current instant arms the first tick one period
// later, and each tick re-arms the next until fn reports false.
func loop(env *Env, period time.Duration, fn func() bool) {
	var tick func()
	tick = func() {
		if fn() {
			env.After(period, tick)
		}
	}
	env.After(0, func() { env.After(period, tick) })
}

func TestClockStartsAtZero(t *testing.T) {
	env := NewEnv()
	if env.Now() != 0 {
		t.Fatalf("new env clock = %v, want 0", env.Now())
	}
}

// TestSleepAdvancesClock: a callback that sleeps 3s by re-arming itself
// wakes at 3s, and Run returns the clock of the last event.
func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv()
	var woke Time
	env.After(0, func() {
		env.After(3*time.Second, func() { woke = env.Now() })
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
	loop(env, time.Second, func() bool {
		marks = append(marks, env.Now())
		return len(marks) < 3
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

// TestParallelProcessesInterleaveDeterministically: loops armed in
// order a, b, c wake in that order at every shared instant.
func TestParallelProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			ticks := 0
			loop(env, time.Second, func() bool {
				ticks++
				order = append(order, fmt.Sprint(name, ticks))
				return ticks < 2
			})
		}
		env.Run()
		return order
	}
	first := run()
	want := []string{"a1", "b1", "c1", "a2", "b2", "c2"}
	if fmt.Sprint(first) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", first, want)
	}
	for trial := 0; trial < 5; trial++ {
		if again := run(); fmt.Sprint(again) != fmt.Sprint(first) {
			t.Fatalf("nondeterministic order: %v vs %v", again, first)
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
		ev.Wait(&waiterMsg{name: name, log: &woke})
	}
	env.After(time.Second, ev.Fire)
	env.Run()
	if want := []string{"w1@1s", "w2@1s"}; fmt.Sprint(woke) != fmt.Sprint(want) {
		t.Errorf("woke = %v, want %v", woke, want)
	}
	if !ev.Fired() {
		t.Error("event not marked fired")
	}
}

func TestEventWaitAfterFireReturnsImmediately(t *testing.T) {
	env := NewEnv()
	ev := NewEvent(env)
	ev.Fire()
	var woke []string
	env.After(time.Second, func() { ev.Wait(&waiterMsg{name: "late", log: &woke}) })
	env.Run()
	if len(woke) != 1 || woke[0] != "late@1s" {
		t.Errorf("late waiter resumed as %v, want [late@1s]", woke)
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
	var wakes []Time
	w := &task{}
	w.step = func() {
		wakes = append(wakes, env.Now())
		if len(wakes) < 3 {
			g.Wait(w)
		}
	}
	g.Wait(w)
	notified := 0
	loop(env, time.Second, func() bool {
		g.Notify()
		notified++
		return notified < 3
	})
	env.Run()
	want := []Time{Time(time.Second), Time(2 * time.Second), Time(3 * time.Second)}
	if fmt.Sprint(wakes) != fmt.Sprint(want) {
		t.Errorf("wakes = %v, want %v", wakes, want)
	}
}

// hold acquires res for a new task, holds it for d, then releases it
// and reports the held span to done.
func hold(env *Env, res *Resource, d time.Duration, done func(start, end Time)) {
	k := &task{}
	acquire(res, k, func() {
		start := env.Now()
		env.After(d, func() {
			res.Release(k)
			done(start, env.Now())
		})
	})
}

func TestResourceMutualExclusion(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "gpu", 1)
	var spans [][2]Time
	for i := 0; i < 3; i++ {
		env.After(0, func() {
			hold(env, res, time.Second, func(start, end Time) {
				spans = append(spans, [2]Time{start, end})
			})
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
		env.After(0, func() {
			hold(env, res, time.Second, func(_, end Time) { finished = append(finished, end) })
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
		// Stagger arrivals so the queue order is unambiguous.
		env.After(time.Duration(i)*time.Millisecond, func() {
			k := &task{}
			acquire(res, k, func() {
				order = append(order, i)
				env.After(time.Second, func() { res.Release(k) })
			})
		})
	}
	env.Run()
	if len(order) != 5 {
		t.Fatalf("served %d of 5", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("service order = %v, want ascending", order)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	k := &task{}
	first := res.TryAcquire(k)
	second := res.TryAcquire(k)
	if first {
		res.Release(k)
	}
	if !first || second {
		t.Errorf("TryAcquire = %v, %v; want true, false", first, second)
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, "r", 1)
	defer func() {
		if recover() == nil {
			t.Error("no panic on unpaired Release")
		}
	}()
	res.Release(&task{})
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	env := NewEnv()
	var ticks int
	loop(env, time.Second, func() bool {
		ticks++
		return ticks < 10
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
	env.After(time.Second, func() {})
	env.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling in the past")
		}
	}()
	env.schedule(0, func() {})
}

// TestYieldLetsPeersRun: a callback yields by re-arming its rest with
// After(0), which runs behind every event already due at the instant.
func TestYieldLetsPeersRun(t *testing.T) {
	env := NewEnv()
	var order []string
	env.After(0, func() {
		order = append(order, "a-start")
		env.After(0, func() { order = append(order, "a-end") })
	})
	env.After(0, func() { order = append(order, "b") })
	env.Run()
	if want := []string{"a-start", "b", "a-end"}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
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
// delays and resource uses completes every worker exactly once and
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
			env.After(d/2, func() {
				k := &task{}
				acquire(res, k, func() {
					if res.InUse() > maxInUse {
						maxInUse = res.InUse()
					}
					env.After(d, func() {
						res.Release(k)
						completed++
					})
				})
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

// TestRunContinuesAcrossRounds: Run may be called again after the queue
// empties, and the clock continues from where the first round ended —
// the warm restart serving layers use for consecutive streams.
func TestRunContinuesAcrossRounds(t *testing.T) {
	env := NewEnv()
	var order []string
	env.After(time.Second, func() { order = append(order, "first") })
	if end := env.Run(); end != Time(time.Second) {
		t.Fatalf("clock = %v after first round, want 1s", end)
	}
	env.After(time.Second, func() { order = append(order, "second") })
	end := env.Run()
	if end != Time(2*time.Second) {
		t.Errorf("clock = %v after second round, want 2s", end)
	}
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Errorf("order = %v", order)
	}
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

// TestSleepSteadyStateAllocations pins the pooled kernel hot path for
// periodic loops: 1000 wakes across 4 self-rescheduling callbacks must
// stay well under the ~2 allocations per wake the closure-based kernel
// paid. The budget covers environment construction, each loop's
// closures, and heap growth — not per-wake garbage.
func TestSleepSteadyStateAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		env := NewEnv()
		for i := 0; i < 4; i++ {
			n := 0
			loop(env, time.Millisecond, func() bool {
				n++
				return n < 250
			})
		}
		env.Run()
	})
	if allocs > 200 {
		t.Errorf("kernel workload allocated %.0f objects, want <= 200 (was ~2000 before event pooling)", allocs)
	}
}

// TestEventPoolReuseAcrossRuns checks warm restarts reuse the free
// list: a second identical round on the same environment should not
// allocate per-event.
func TestEventPoolReuseAcrossRuns(t *testing.T) {
	env := NewEnv()
	round := func() {
		for i := 0; i < 100; i++ {
			env.After(time.Duration(i)*time.Millisecond, func() {})
		}
		env.Run()
	}
	round()
	allocs := testing.AllocsPerRun(1, round)
	if allocs > 10 {
		t.Errorf("second round allocated %.0f objects, want <= 10", allocs)
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
// again at the tail — an executor's re-check on every wake.
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
