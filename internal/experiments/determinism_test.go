package experiments

import "testing"

// TestFaultExperimentsDeterministic pins the fault-injection experiments
// byte for byte: serve-chaos (rolling crash/drain/recover with lease
// redelivery, executors voiding their in-flight batches mid-crash) and
// serve-grayfail (fail-slow, jitter and stall through the executors'
// Degrade seam, the health-scored breaker, hedged redelivery and timer
// cancellation). Each renders twice on fresh contexts; the two renders
// must match each other and the committed golden file. `make race` runs
// this under the race detector too.
func TestFaultExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"serve-chaos", "serve-grayfail"} {
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			var renders [2]string
			for i := range renders {
				tb, err := e.Run(NewContext())
				if err != nil {
					t.Fatalf("render %d: %v", i+1, err)
				}
				renders[i] = tb.Render()
			}
			if renders[0] != renders[1] {
				t.Fatalf("two renders differ\n--- first ---\n%s\n--- second ---\n%s", renders[0], renders[1])
			}
			checkGolden(t, id, renders[0])
		})
	}
}
