// Command detlint is the determinism lint: it scans non-test Go files
// under the given packages root (default ./internal) for constructs
// that break byte-reproducible simulation output and fails loudly on
// any finding. The simulator's contract — identical tables, reports,
// and experiment output for identical inputs, at any worker count and
// under -race — dies quietly when wall-clock time, the global
// math/rand generator, or Go's randomized map iteration order leaks
// into an output path, so the lint runs in CI next to go vet.
//
// Flagged:
//
//   - time.Now / time.Since: wall-clock reads. Simulation code must use
//     the virtual clock (sim.Env.Now). Deliberate wall-clock
//     measurement (the Figure 19 scheduling-overhead probe) is
//     annotated.
//   - package-level math/rand calls (rand.Intn, rand.Float64, ...):
//     the global generator is shared, unseeded, and race-prone.
//     Constructing owned generators (rand.New, rand.NewSource,
//     rand.NewZipf) is fine — every stream in this codebase carries its
//     own seeded source.
//   - range over a map: iteration order is randomized per run. Sites
//     that fold map contents commutatively or sort before use are
//     annotated; anything new must either neutralize the order the
//     same way or use a slice.
//   - goroutine launches and sync/sync.atomic use inside the kernel
//     packages (internal/sim, internal/cluster): every event must be
//     ordered by the kernel itself, which runs its callbacks and
//     messages (Env.After, Env.PostMsg) one at a time on one goroutine
//     and one virtual clock, so kernel state is never guarded by locks.
//     Parallelism belongs outside the kernel, across whole independent
//     simulations (internal/runner). No kernel package has an
//     exemption.
//
// A finding is silenced by a `//detlint:allow <reason>` comment on the
// offending line or the line above it — the reason is the point: every
// exemption documents why the order or clock cannot leak into output.
//
// Usage:
//
//	go run ./cmd/detlint            # lint ./internal
//	go run ./cmd/detlint ./pkg ...  # lint other roots
package main

import (
	"fmt"
	"os"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"./internal"}
	}
	var findings []string
	for _, root := range roots {
		fs, err := lintRoot(root)
		if err != nil {
			fmt.Fprintf(os.Stderr, "detlint: %v\n", err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "detlint: %s\n", f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d finding(s) — annotate with //detlint:allow <reason> only if the order or clock cannot reach output\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("detlint: OK — no wall-clock, global-rand, or map-order hazards")
}
