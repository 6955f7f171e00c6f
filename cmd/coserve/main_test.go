package main

import (
	"os"
	"testing"
)

// silence routes stdout to /dev/null for the duration of a test so CLI
// output does not pollute the test log.
func silence(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][]string{
		nil,
		{"frobnicate"},
		{"experiment"},
		{"experiment", "fig99"},
		{"run", "-device", "quantum"},
		{"run", "-system", "magic"},
		{"run", "-task", "Z9"},
		{"profile", "-device", "quantum"},
		{"serve", "-device", "quantum"},
		{"serve", "-system", "magic"},
		{"serve", "-board", "Z"},
		{"serve", "-arrival", "telepathic"},
		{"serve", "-repeat", "0"},
		{"serve", "-admit", "nope"},
		{"serve", "-admit", "shed"}, // shed without -slo
		{"serve", "-admit", "bounded", "-queue-bound", "0"},
		{"serve", "-admit", "token", "-admit-rate", "0"},
		{"serve", "-admit", "tenant-quota", "-tenant-rate", "0"},
		{"serve", "-nodes", "0"},
		{"serve", "-nodes", "2", "-router", "telepathic"},
		{"serve", "-nodes", "2", "-placement", "everywhere"},
		{"serve", "-nodes", "2", "-window", "1s", "-fleet-autoscale", "Inf"},
		{"serve", "-nodes", "2", "-window", "1s", "-fleet-autoscale", "NaN"},
		{"serve", "-nodes", "2", "-window", "1s", "-fleet-autoscale", "-5"},
		{"serve", "-arrival", "replay"}, // replay without -trace
		{"serve", "-arrival", "replay", "-trace", "/does/not/exist"},
	}
	silence(t)
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestListAndHelp(t *testing.T) {
	silence(t)
	if err := run([]string{"list"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"help"}); err != nil {
		t.Error(err)
	}
}

func TestProfileSubcommand(t *testing.T) {
	silence(t)
	if err := run([]string{"profile", "-device", "uma"}); err != nil {
		t.Error(err)
	}
}

func TestRunSubcommandSmall(t *testing.T) {
	silence(t)
	if err := run([]string{"run", "-device", "numa", "-system", "coserve", "-task", "B1", "-n", "120"}); err != nil {
		t.Error(err)
	}
}

func TestServeSubcommandSmall(t *testing.T) {
	silence(t)
	if err := run([]string{"serve", "-arrival", "poisson", "-rate", "30", "-n", "150", "-slo", "1s"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"serve", "-arrival", "fixed", "-n", "120", "-repeat", "2"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"serve", "-arrival", "bursty", "-n", "100"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"serve", "-board", "A+B", "-arrival", "mix", "-rate", "6", "-n", "100"}); err != nil {
		t.Error(err)
	}
}

// TestServeControlPlaneFlags drives the admission and autoscaling
// knobs end-to-end from the CLI.
func TestServeControlPlaneFlags(t *testing.T) {
	silence(t)
	cases := [][]string{
		{"serve", "-arrival", "steady", "-rate", "60", "-horizon", "2s", "-admit", "bounded", "-queue-bound", "16"},
		{"serve", "-arrival", "steady", "-rate", "60", "-horizon", "2s", "-admit", "token", "-admit-rate", "10", "-admit-burst", "5"},
		{"serve", "-arrival", "steady", "-rate", "60", "-horizon", "2s", "-admit", "shed", "-slo", "500ms"},
		{"serve", "-arrival", "poisson", "-rate", "10", "-n", "80", "-autoscale", "-window", "200ms"},
		{"serve", "-arrival", "steady", "-rate", "30", "-horizon", "2s", "-admit", "accept"},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("args %v: %v", args, err)
		}
	}
}

// TestServeClusterFlags drives the multi-node serving path from the
// CLI: every router/placement pair on a small stream, plus warm
// restarts and admission on a fleet.
func TestServeClusterFlags(t *testing.T) {
	silence(t)
	for _, router := range []string{"least-loaded", "affinity", "predict"} {
		for _, placement := range []string{"mirror", "partition", "usage"} {
			args := []string{"serve", "-nodes", "2", "-router", router, "-placement", placement,
				"-rate", "30", "-n", "100", "-slo", "1s"}
			if err := run(args); err != nil {
				t.Errorf("args %v: %v", args, err)
			}
		}
	}
	if err := run([]string{"serve", "-nodes", "3", "-router", "affinity", "-placement", "usage",
		"-rate", "30", "-n", "100", "-repeat", "2", "-admit", "bounded", "-queue-bound", "64"}); err != nil {
		t.Errorf("cluster warm restart with admission: %v", err)
	}
}

// TestServeRecordReplayFlags captures a trace through -record and
// serves it back with -arrival replay.
func TestServeRecordReplayFlags(t *testing.T) {
	silence(t)
	trace := t.TempDir() + "/trace.bin"
	if err := run([]string{"serve", "-record", trace, "-rate", "30", "-n", "100"}); err != nil {
		t.Fatalf("record: %v", err)
	}
	if _, err := os.Stat(trace); err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	if err := run([]string{"serve", "-arrival", "replay", "-trace", trace}); err != nil {
		t.Errorf("replay: %v", err)
	}
	if err := run([]string{"serve", "-arrival", "replay", "-trace", trace, "-nodes", "2"}); err != nil {
		t.Errorf("replay onto a cluster: %v", err)
	}
}

func TestExperimentSubcommand(t *testing.T) {
	silence(t)
	if err := run([]string{"experiment", "tab1"}); err != nil {
		t.Error(err)
	}
	if err := run([]string{"experiment", "ext-arrival"}); err != nil {
		t.Error(err)
	}
}

func TestProfilePersistAndReuse(t *testing.T) {
	silence(t)
	dir := t.TempDir()
	perfPath := dir + "/numa.perf.json"
	if err := run([]string{"profile", "-device", "numa", "-o", perfPath}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(perfPath); err != nil {
		t.Fatalf("perf file not written: %v", err)
	}
	if err := run([]string{"run", "-device", "numa", "-task", "A1", "-n", "100", "-perf", perfPath}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", "-perf", dir + "/missing.json"}); err == nil {
		t.Error("missing perf file accepted")
	}
}
