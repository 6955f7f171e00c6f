package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestParseFaultPlanRejectsTrailingText pins whole-field parsing: a
// node or factor followed by anything else is an error, not a prefix
// silently taken as the value.
func TestParseFaultPlanRejectsTrailingText(t *testing.T) {
	for _, spec := range []string{
		"crash@1s:1abc",
		"slow@1s:1x4junk",
		"jitter@1s:0x8 8",
		"drain@1s:1.5",
		"stall@1s:1x1.5sx",
	} {
		if plan, err := parseFaultPlan(spec); err == nil {
			t.Errorf("parseFaultPlan(%q) accepted: %+v", spec, plan.Events)
		}
	}
}

// TestChaosRejectsNonFiniteFactors runs the serve command with slow
// factors that parse as floats but are not finite: each must fail with
// an error instead of panicking in the simulation (+Inf) or silently
// doing nothing (NaN).
func TestChaosRejectsNonFiniteFactors(t *testing.T) {
	silence(t)
	for _, spec := range []string{"slow@1s:1xInf", "slow@1s:1x+Inf", "jitter@1s:1xNaN", "slow@1s:1x1e400"} {
		if err := run([]string{"serve", "-nodes", "2", "-n", "20", "-chaos", spec}); err == nil {
			t.Errorf("-chaos %q accepted", spec)
		}
	}
}

// renderFaultPlan writes events back in the -chaos syntax.
func renderFaultPlan(events []sim.FaultEvent) string {
	var b strings.Builder
	for i, ev := range events {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s@%v:%d", ev.Kind, ev.At, ev.Node)
		switch ev.Kind {
		case sim.FaultSlow, sim.FaultJitter:
			b.WriteString("x" + strconv.FormatFloat(ev.Factor, 'g', -1, 64))
		case sim.FaultStall:
			fmt.Fprintf(&b, "x%v", ev.For)
		}
	}
	return b.String()
}

// sameEvent compares events, with factors compared bit for bit so that
// a NaN factor equals itself.
func sameEvent(a, b sim.FaultEvent) bool {
	return a.At == b.At && a.Node == b.Node && a.Kind == b.Kind && a.For == b.For &&
		math.Float64bits(a.Factor) == math.Float64bits(b.Factor)
}

// FuzzParseFaultPlan: parseFaultPlan never panics; any plan it accepts
// renders back to a spec that parses to the same events; and a plan
// that also validates carries only finite slow and jitter factors
// above 1, so the simulation never sees one it cannot apply.
func FuzzParseFaultPlan(f *testing.F) {
	for _, seed := range []string{
		"crash@2s:1,recover@3.5s:1,drain@6s:2",
		"slow@2s:1x4,jitter@3s:0x8,stall@4s:1x1.5s,recover@5s:1",
		"slow@1s:1xInf",
		"slow@1s:1xNaN",
		"crash@1s:1abc",
		"slow@1s:1x4junk",
		"stall@1s:1x-1s",
		"drain@-1s:0",
		" , crash@0s:0 ,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := parseFaultPlan(spec)
		if err != nil {
			return
		}
		again, err := parseFaultPlan(renderFaultPlan(plan.Events))
		if err != nil {
			t.Fatalf("rendered plan %q does not parse: %v", renderFaultPlan(plan.Events), err)
		}
		if len(again.Events) != len(plan.Events) {
			t.Fatalf("round trip has %d events, want %d", len(again.Events), len(plan.Events))
		}
		for i := range plan.Events {
			if !sameEvent(plan.Events[i], again.Events[i]) {
				t.Fatalf("event %d round trips %+v to %+v", i, plan.Events[i], again.Events[i])
			}
		}
		nodes := 1
		for _, ev := range plan.Events {
			if ev.Node >= 1<<16 {
				return // a fleet that large is beside the point
			}
			nodes = max(nodes, ev.Node+1)
		}
		if plan.Validate(nodes) != nil {
			return
		}
		for _, ev := range plan.Events {
			if (ev.Kind == sim.FaultSlow || ev.Kind == sim.FaultJitter) &&
				(math.IsNaN(ev.Factor) || math.IsInf(ev.Factor, 0) || ev.Factor <= 1) {
				t.Fatalf("validated plan carries %s factor %g", ev.Kind, ev.Factor)
			}
		}
	})
}

// FuzzParseInterconnect: parseInterconnect never panics, and any hop
// model it accepts renders back to a spec that parses to the same
// model.
func FuzzParseInterconnect(f *testing.F) {
	for _, seed := range []string{
		"",
		"200us/100us/600us@2",
		"1ms/0s/2ms",
		"200us/100us/600us@0",
		"200us/100us/600usjunk@2",
		"1s/1s/1s@2x",
		"-1s/1s/1s",
		" 1ms / 2ms / 3ms @ 4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ic, err := parseInterconnect(spec)
		if err != nil || spec == "" {
			return
		}
		out := fmt.Sprintf("%v/%v/%v", ic.Dispatch, ic.IntraBoard, ic.InterNode)
		if ic.BoardSize > 0 {
			out += fmt.Sprintf("@%d", ic.BoardSize)
		}
		again, err := parseInterconnect(out)
		if err != nil {
			t.Fatalf("rendered model %q does not parse: %v", out, err)
		}
		if again != ic {
			t.Fatalf("round trip %q -> %+v -> %q -> %+v", spec, ic, out, again)
		}
	})
}
