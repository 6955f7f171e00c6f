package sched

import (
	"testing"

	"repro/internal/coe"
	"repro/internal/sim"
)

// TestPurgeReturnsBacklogInOrder pins the crash path: Purge hands back
// every queued request — the started head group's undrained tail
// included — in queue order, and leaves the queue truly empty (indexes
// reset, pending zero) so a restarted node starts from scratch.
func TestPurgeReturnsBacklogInOrder(t *testing.T) {
	env := sim.NewEnv()
	q := testQueue(t, env, ModeGrouped)
	for i, e := range []coe.ExpertID{1, 1, 2, 2, 1} {
		q.Enqueue(expert(e), req(int64(i), e))
	}
	// Start the head group (expert 1: requests 0,1,4) and drain one item,
	// as a crashed-mid-batch executor would have.
	if batch := q.TakeFromHead(1); len(batch) != 1 || batch[0].ID != 0 {
		t.Fatalf("TakeFromHead = %v", batch)
	}
	got := q.Purge()
	want := []int64{1, 4, 2, 3} // head tail first, then the expert-2 group
	if len(got) != len(want) {
		t.Fatalf("purged %d requests, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.ID != want[i] {
			t.Errorf("purge[%d] = request %d, want %d", i, r.ID, want[i])
		}
	}
	if q.Len() != 0 || q.Groups() != 0 || q.Pending() != 0 {
		t.Errorf("after purge: len=%d groups=%d pending=%v, want all zero", q.Len(), q.Groups(), q.Pending())
	}
	if q.Purge() != nil {
		t.Error("purging an empty queue returned requests")
	}

	// The expert index was reset: a post-purge enqueue opens a fresh
	// group instead of merging into a purged one, and drains normally.
	q.Enqueue(expert(1), req(10, 1))
	if q.Len() != 1 || q.Groups() != 1 {
		t.Fatalf("post-purge enqueue: len=%d groups=%d", q.Len(), q.Groups())
	}
	if batch := q.TakeFromHead(4); len(batch) != 1 || batch[0].ID != 10 {
		t.Fatalf("post-purge drain = %v", batch)
	}
}

// TestPurgeKeepsCrashedBatchIntact pins the crash/restart race on group
// recycling: an executor of the crashed epoch may still be mid-batch on
// a group it drained completely (now the queue's retired group) when
// the restarted executor drains fresh groups. Those drains must not
// wipe the old batch's item array, or the crashed executor voids nil
// requests.
func TestPurgeKeepsCrashedBatchIntact(t *testing.T) {
	env := sim.NewEnv()
	q := testQueue(t, env, ModeGrouped)
	q.Enqueue(expert(1), req(0, 1))
	q.Enqueue(expert(1), req(1, 1))
	old := q.TakeFromHead(4) // drains the whole group: it retires
	q.Purge()                // the crash
	// The restarted executor drains two fresh groups; without the fix
	// the second drain wipes the crashed batch's group.
	for i, e := range []coe.ExpertID{2, 3} {
		q.Enqueue(expert(e), req(int64(10+i), e))
		q.TakeFromHead(4)
	}
	if len(old) != 2 || old[0] == nil || old[1] == nil || old[0].ID != 0 || old[1].ID != 1 {
		t.Fatalf("crashed batch was recycled under its executor: %v", old)
	}
}
