package pool

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/coe"
	"repro/internal/hw"
	"repro/internal/memory"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/xfer"
)

// testWorld builds a sim env, a NUMA store (with optional cache), and a
// CoE model with nCls classifiers and one shared detector linked to
// classifiers 0 and 1.
func testWorld(t *testing.T, cacheBytes int64, nCls int) (*sim.Env, *Store, *coe.Model) {
	t.Helper()
	env := sim.NewEnv()
	store := NewStore(env, hw.NUMADevice(), cacheBytes)
	b := coe.NewBuilder("t")
	var cls []coe.ExpertID
	for i := 0; i < nCls; i++ {
		cls = append(cls, b.AddExpert("c", model.ResNet101, coe.Preliminary))
	}
	det := b.AddExpert("d", model.YOLOv5m, coe.Subsequent)
	b.Link(cls[0], det)
	b.Link(cls[1], det)
	for i, c := range cls {
		b.AddRule(i, coe.Rule{Classifier: c, Detector: det, PassProb: 0.5})
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Distinct usage probabilities: expert i gets (i+1)/total.
	for i, e := range m.Experts() {
		e.UsageProb = float64(i+1) / float64(m.NumExperts())
	}
	return env, store, m
}

func newPool(env *sim.Env, store *Store, m *coe.Model, capacity int64, pol Policy) *Pool {
	return New("gpu0", capacity, store, memory.TierGPU, pol, env.Now, make([]int32, m.NumExperts()))
}

const rn101 = 178_196_640 // ResNet101 weight bytes

// pinner pins an expert the way an executor does, as a Message the
// kernel steps through the pin-and-load sequence: TryPin, a wait on a
// sharer's in-flight load, StartLoad, each transfer leg's acquire and
// hold, and FinishLoad. It then reports whether it switched the expert
// in.
type pinner struct {
	env     *sim.Env
	p       *Pool
	e       *coe.Expert
	loading bool
	load    Load
	leg     int
	held    bool
	done    func(switched bool)
}

// acquire pins e in pool p at the current instant and calls done once
// the pin holds; the caller releases it.
func acquire(env *sim.Env, p *Pool, e *coe.Expert, done func(switched bool)) {
	k := &pinner{env: env, p: p, e: e, done: done}
	k.Deliver(env.Now())
}

func (k *pinner) Deliver(now sim.Time) {
	if !k.loading {
		pinned, loading := k.p.TryPin(k.e)
		if pinned {
			k.done(false)
			return
		}
		if loading != nil {
			loading.Wait(k) // a sharer is switching it in: re-check then
			return
		}
		k.load = k.p.StartLoad(k.e)
		k.loading = true
	}
	for legs := k.load.Transfer.Legs(); k.leg < len(legs); k.leg++ {
		leg := legs[k.leg]
		if !k.held {
			if !leg.Res.Acquire(k) {
				return // posted again when a unit frees
			}
			k.held = true
			k.env.PostMsg(now.Add(leg.Hold), k)
			return
		}
		leg.Res.Release(k)
		k.held = false
	}
	k.p.FinishLoad(&k.load)
	k.done(true)
}

// pinRelease pins e and releases it at once, then runs then.
func pinRelease(env *sim.Env, p *Pool, e *coe.Expert, then func()) {
	acquire(env, p, e, func(bool) {
		p.Release(e.ID)
		then()
	})
}

func TestPreload(t *testing.T) {
	env, store, m := testWorld(t, 0, 3)
	p := newPool(env, store, m, 2*rn101+rn101/2, LRU{})
	if !p.Preload(m.Expert(0)) || !p.Preload(m.Expert(1)) {
		t.Fatal("preload of two experts failed")
	}
	if p.Preload(m.Expert(2)) {
		t.Error("third expert should not fit")
	}
	if !p.Preload(m.Expert(0)) {
		t.Error("re-preload of resident expert should succeed")
	}
	if p.Loaded() != 2 {
		t.Errorf("loaded = %d, want 2", p.Loaded())
	}
}

func TestAcquireHitNoSwitch(t *testing.T) {
	env, store, m := testWorld(t, 0, 2)
	p := newPool(env, store, m, 4*rn101, LRU{})
	p.Preload(m.Expert(0))
	var switched bool
	acquire(env, p, m.Expert(0), func(sw bool) {
		switched = sw
		p.Release(0)
	})
	end := env.Run()
	if switched {
		t.Error("hit reported as switch")
	}
	if end != 0 {
		t.Errorf("hit consumed %v of virtual time", end)
	}
	if p.Switches() != 0 {
		t.Errorf("switches = %d, want 0", p.Switches())
	}
}

func TestAcquireMissLoadsFromSSD(t *testing.T) {
	env, store, m := testWorld(t, 0, 2)
	p := newPool(env, store, m, 4*rn101, LRU{})
	switched := false
	acquire(env, p, m.Expert(0), func(sw bool) {
		switched = sw
		p.Release(0)
	})
	end := env.Run()
	if !switched {
		t.Error("miss not reported as switch")
	}
	want := xfer.LoadLatency(store.Device(), xfer.FromSSD, memory.TierGPU, m.Expert(0).WeightBytes())
	if end != sim.Time(want) {
		t.Errorf("load took %v, want %v", end, want)
	}
	if p.Switches() != 1 || p.SSDLoads() != 1 || p.HostHits() != 0 {
		t.Errorf("stats: switches=%d ssd=%d host=%d", p.Switches(), p.SSDLoads(), p.HostHits())
	}
	if !p.IsLoaded(0) {
		t.Error("expert not resident after load")
	}
}

func TestAcquireEvictsWhenFull(t *testing.T) {
	env, store, m := testWorld(t, 0, 3)
	p := newPool(env, store, m, 2*rn101, LRU{})
	p.Preload(m.Expert(0))
	p.Preload(m.Expert(1))
	pinRelease(env, p, m.Expert(2), func() {})
	env.Run()
	if p.Loaded() != 2 {
		t.Errorf("loaded = %d, want 2", p.Loaded())
	}
	if !p.IsLoaded(2) {
		t.Error("new expert not resident")
	}
	if p.Evictions() != 1 {
		t.Errorf("evictions = %d, want 1", p.Evictions())
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	env, store, m := testWorld(t, 0, 3)
	p := newPool(env, store, m, 2*rn101, LRU{})
	p.Preload(m.Expert(0))
	p.Preload(m.Expert(1))
	// Touch 0 later than 1: 1 becomes the LRU victim.
	pinRelease(env, p, m.Expert(1), func() {
		env.After(time.Second, func() {
			pinRelease(env, p, m.Expert(0), func() {
				env.After(time.Second, func() { pinRelease(env, p, m.Expert(2), func() {}) })
			})
		})
	})
	env.Run()
	if p.IsLoaded(1) {
		t.Error("LRU kept the least recently used expert")
	}
	if !p.IsLoaded(0) || !p.IsLoaded(2) {
		t.Error("LRU evicted the wrong expert")
	}
}

func TestFIFOEvictsOldestLoad(t *testing.T) {
	env, store, m := testWorld(t, 0, 3)
	p := newPool(env, store, m, 2*rn101, FIFO{})
	p.Preload(m.Expert(0)) // loaded first
	p.Preload(m.Expert(1))
	// Recent touch must NOT save expert 0 under FIFO.
	pinRelease(env, p, m.Expert(0), func() {
		pinRelease(env, p, m.Expert(2), func() {})
	})
	env.Run()
	if p.IsLoaded(0) {
		t.Error("FIFO kept the first-loaded expert")
	}
	if !p.IsLoaded(1) || !p.IsLoaded(2) {
		t.Error("FIFO evicted the wrong expert")
	}
}

func TestDepAwareStage1EvictsOrphanedSubsequent(t *testing.T) {
	// Figure 10 stage 1: the detector (subsequent) whose preliminary
	// experts are absent is evicted before any classifier, even though
	// its usage probability is the highest.
	env, store, m := testWorld(t, 0, 4)
	det := m.Expert(4)
	det.UsageProb = 0.99
	cls2, cls3 := m.Expert(2), m.Expert(3) // not linked to det
	cls2.UsageProb = 0.01
	cls3.UsageProb = 0.02
	// Capacity chosen so that evicting the detector alone frees enough
	// room for the incoming ResNet101 classifier.
	p := newPool(env, store, m, 3*rn101+1024, DepAware{})
	p.Preload(cls2)
	p.Preload(cls3)
	p.Preload(det) // orphaned: cls0/cls1 not resident
	pinRelease(env, p, m.Expert(0), func() {})
	env.Run()
	if p.IsLoaded(det.ID) {
		t.Error("orphaned subsequent expert survived stage 1")
	}
	if !p.IsLoaded(cls2.ID) || !p.IsLoaded(cls3.ID) {
		t.Error("stage 1 evicted classifiers despite orphaned detector")
	}
}

func TestDepAwareDetectorWithResidentPreliminarySurvives(t *testing.T) {
	// When a preliminary expert of the detector is resident, the
	// detector is not orphaned; stage 2 evicts by usage probability.
	env, store, m := testWorld(t, 0, 4)
	det := m.Expert(4)
	det.UsageProb = 0.99
	cls0 := m.Expert(0) // linked to det
	cls0.UsageProb = 0.5
	cls2 := m.Expert(2)
	cls2.UsageProb = 0.01 // lowest usage -> stage-2 victim
	p := newPool(env, store, m, cls0.WeightBytes()+cls2.WeightBytes()+det.WeightBytes()+rn101/2, DepAware{})
	p.Preload(cls0)
	p.Preload(cls2)
	p.Preload(det)
	pinRelease(env, p, m.Expert(3), func() {})
	env.Run()
	if !p.IsLoaded(det.ID) {
		t.Error("non-orphaned detector evicted")
	}
	if p.IsLoaded(cls2.ID) {
		t.Error("lowest-usage classifier survived stage 2")
	} else if !p.IsLoaded(cls0.ID) {
		t.Error("higher-usage classifier evicted before lower")
	}
}

func TestPinnedExpertsNeverEvicted(t *testing.T) {
	env, store, m := testWorld(t, 0, 3)
	p := newPool(env, store, m, 2*rn101, LRU{})
	p.Preload(m.Expert(0))
	p.Preload(m.Expert(1))
	acquire(env, p, m.Expert(0), func(bool) { // pin 0; LRU would otherwise pick it
		acquire(env, p, m.Expert(2), func(bool) { // must evict 1, not pinned 0
			p.Release(2)
			p.Release(0)
		})
	})
	env.Run()
	if !p.IsLoaded(0) {
		t.Error("pinned expert was evicted")
	}
	if p.IsLoaded(1) {
		t.Error("unpinned expert survived over pinned")
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	env, store, m := testWorld(t, 0, 2)
	p := newPool(env, store, m, 2*rn101, LRU{})
	defer func() {
		if recover() == nil {
			t.Error("no panic for unpaired release")
		}
	}()
	p.Release(0)
}

func TestResetStats(t *testing.T) {
	env, store, m := testWorld(t, 0, 2)
	p := newPool(env, store, m, 4*rn101, LRU{})
	pinRelease(env, p, m.Expert(0), func() {})
	env.Run()
	if p.Switches() != 1 {
		t.Fatal("setup: expected one switch")
	}
	p.ResetStats()
	if p.Switches() != 0 || p.Evictions() != 0 || p.LoadTime() != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestStoreCacheHitIsFastAndExclusive(t *testing.T) {
	env, store, m := testWorld(t, 4*rn101, 2)
	e := m.Expert(0)
	// Simulate a prior eviction into the cache.
	store.demote(e, memory.TierGPU)
	if !store.Cached(e.ID) {
		t.Fatal("demoted expert not cached")
	}
	p := newPool(env, store, m, 4*rn101, LRU{})
	pinRelease(env, p, e, func() {})
	end := env.Run()
	want := xfer.LoadLatency(store.Device(), xfer.FromHost, memory.TierGPU, e.WeightBytes())
	if end != sim.Time(want) {
		t.Errorf("cache-hit load took %v, want %v", end, want)
	}
	if p.HostHits() != 1 || p.SSDLoads() != 0 {
		t.Errorf("host=%d ssd=%d, want 1/0", p.HostHits(), p.SSDLoads())
	}
	if store.Cached(e.ID) {
		t.Error("cache not exclusive: expert still cached after fetch")
	}
}

func TestStoreDemotionFillsCacheWithLRUEviction(t *testing.T) {
	_, store, m := testWorld(t, 2*rn101, 3)
	store.demote(m.Expert(0), memory.TierGPU)
	store.demote(m.Expert(1), memory.TierGPU)
	store.demote(m.Expert(2), memory.TierGPU) // evicts 0 (LRU)
	if store.Cached(0) {
		t.Error("cache did not evict its LRU entry")
	}
	if !store.Cached(1) || !store.Cached(2) {
		t.Error("cache holds wrong entries")
	}
	if store.CacheLen() != 2 {
		t.Errorf("cache len = %d, want 2", store.CacheLen())
	}
}

func TestStoreWithoutCache(t *testing.T) {
	_, store, m := testWorld(t, 0, 2)
	store.demote(m.Expert(0), memory.TierGPU) // must be a no-op
	if store.Cached(0) || store.CacheLen() != 0 || store.CacheBytes() != 0 {
		t.Error("cache-less store is caching")
	}
}

func TestCPUEvictionsDoNotEnterCache(t *testing.T) {
	_, store, m := testWorld(t, 4*rn101, 2)
	store.demote(m.Expert(0), memory.TierCPU)
	if store.Cached(0) {
		t.Error("CPU-tier eviction entered the GPU demotion cache")
	}
}

func TestPredictLoad(t *testing.T) {
	_, store, m := testWorld(t, 4*rn101, 2)
	e := m.Expert(0)
	ssd := store.PredictLoad(e, memory.TierGPU)
	wantSSD := xfer.LoadLatency(store.Device(), xfer.FromSSD, memory.TierGPU, e.WeightBytes())
	if ssd != wantSSD {
		t.Errorf("PredictLoad uncached = %v, want %v", ssd, wantSSD)
	}
	store.demote(e, memory.TierGPU)
	cached := store.PredictLoad(e, memory.TierGPU)
	wantHost := xfer.LoadLatency(store.Device(), xfer.FromHost, memory.TierGPU, e.WeightBytes())
	if cached != wantHost {
		t.Errorf("PredictLoad cached = %v, want %v", cached, wantHost)
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"lru", "fifo", "dep-aware"} {
		pol, ok := PolicyByName(name)
		if !ok || pol.Name() != name {
			t.Errorf("PolicyByName(%q) = %v, %v", name, pol, ok)
		}
	}
	if _, ok := PolicyByName("magic"); ok {
		t.Error("unknown policy resolved")
	}
}

func TestStatusStrings(t *testing.T) {
	if Absent.String() != "absent" || Loading.String() != "loading" || Loaded.String() != "loaded" {
		t.Error("status strings wrong")
	}
	if Status(9).String() == "" {
		t.Error("unknown status string empty")
	}
}

// TestRandomAcquireReleaseInvariants drives random acquire/release
// sequences under every policy and checks the pool bookkeeping
// invariants the design document promises.
func TestRandomAcquireReleaseInvariants(t *testing.T) {
	policies := []Policy{LRU{}, FIFO{}, DepAware{}}
	for _, pol := range policies {
		pol := pol
		t.Run(pol.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			env, store, m := testWorld(t, 3*rn101, 8)
			holds := make([]int32, m.NumExperts())
			p := New("gpu0", 3*rn101, store, memory.TierGPU, pol, env.Now, holds)
			steps := 0
			var step func()
			step = func() {
				i := steps
				steps++
				e := m.Expert(coe.ExpertID(rng.Intn(m.NumExperts())))
				acquire(env, p, e, func(bool) {
					if p.FreeBytes() < 0 {
						t.Error("negative free bytes")
					}
					// The residency count mirrors the entry map exactly.
					for _, x := range m.Experts() {
						if want := p.Resident(x.ID); (holds[x.ID] == 1) != want || holds[x.ID] > 1 {
							t.Errorf("step %d: holds[%d] = %d, Resident = %v", i, x.ID, holds[x.ID], want)
							return
						}
					}
					env.After(time.Duration(rng.Intn(50))*time.Millisecond, func() {
						p.Release(e.ID)
						if got := p.Loaded(); got < 1 {
							t.Errorf("loaded = %d after acquire", got)
						}
						if steps < 200 {
							step()
						}
					})
				})
			}
			step()
			env.Run()
			if steps != 200 {
				t.Fatalf("ran %d of 200 acquire/release steps", steps)
			}
			// Conservation: switches - evictions = resident delta.
			if int64(p.Loaded()) != p.Switches()-p.Evictions() {
				t.Errorf("loaded=%d switches=%d evictions=%d: conservation broken",
					p.Loaded(), p.Switches(), p.Evictions())
			}
		})
	}
}
