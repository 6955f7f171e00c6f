package coe

import "testing"

// TestRecycledThenRedeliveredDoesNotAliasLease pins the invariant the
// cluster's durable-delivery ledger depends on: a lease's private chain
// copy must stay immune to the arena recycling the request it was
// copied from, and a redelivered request rebuilt from the lease must
// not alias the lease's copy in return. Both directions matter — the
// original object can be re-leased to a new arrival the moment the node
// recycles it, and the redelivered object is mutated by routing and
// dispatch.
func TestRecycledThenRedeliveredDoesNotAliasLease(t *testing.T) {
	a := NewArena()

	// Admission: a request leases from the arena and is offered to a
	// node; the ledger copies its chain (exactly as the cluster
	// ledger's open does).
	r1 := a.Lease()
	r1.ID = 7
	r1.Chain = append(r1.Chain, 1, 2, 3)
	ledgerChain := append(make([]ExpertID, 0, len(r1.Chain)), r1.Chain...)

	// Crash: the node recycles the voided object, and a new arrival
	// immediately re-leases it with a different chain.
	Recycle(r1)
	r2 := a.Lease()
	if r2 != r1 {
		t.Fatal("arena did not reuse the recycled object (test premise)")
	}
	r2.ID = 8
	r2.Chain = append(r2.Chain, 9, 9, 9)
	if ledgerChain[0] != 1 || ledgerChain[1] != 2 || ledgerChain[2] != 3 {
		t.Fatalf("re-leasing the recycled object mutated the ledger's chain copy: %v", ledgerChain)
	}

	// Redelivery: the lease materializes a fresh request from its copy
	// (exactly as the cluster ledger's leaseRequest does) while r2 is live.
	r3 := a.Lease()
	r3.ID = 7
	r3.Chain = append(r3.Chain[:0], ledgerChain...)
	r3.Chain[0] = 5 // dispatch-side mutation
	r3.Chain = append(r3.Chain, 6)
	if ledgerChain[0] != 1 || len(ledgerChain) != 3 {
		t.Fatalf("mutating the redelivered request reached the ledger copy: %v", ledgerChain)
	}
	if r2.Chain[0] != 9 || len(r2.Chain) != 3 {
		t.Fatalf("redelivery corrupted the live re-leased request: %v", r2.Chain)
	}
}
