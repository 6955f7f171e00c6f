// Command perfbench is the repository's benchmark. One run sets up and
// serves one workload repeatedly for a fixed host time, cycling through
// several request streams derived from the seed, checks every
// iteration's outputs, and prints one JSON result line:
//
//	perfbench --workload fleet-steady --seed 20260807 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics. With
// --trace 1 the benchmark wraps each layer seam it calls (router,
// placement, eviction policy, request source, system construction and
// serving, profiler) in timing wrappers and reports per-layer metrics
// instead; with --spans, the spans of the last iteration are written
// there as Chrome trace-event JSON.
//
// Host metrics (setup_s, host_req_per_s, alloc_mb, mallocs_k,
// rss_peak_mb) time the simulator. Simulated metrics (sim_*,
// slo_attainment) describe the modelled system in virtual time and
// repeat exactly for a seed; the digest line covers every simulated
// statistic of every stream, so a change to the simulator alone must
// leave it unchanged.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/stats"
)

// defaultSeed reproduces the repository's own streams: the Steady seed
// of BenchmarkFleetServe, and the paper tasks' own seeds for the grid.
// Any other seed is a held-out run.
const defaultSeed = 20260807

// streams is how many request streams one run serves. Iterations cycle
// through them, and every stream is served at least once. One stream's
// median latency moves by several percent from seed to seed; the median
// over five streams moves much less, so a run's figures rest on more
// than one draw of the workload.
const streams = 5

// streamSeed derives the seed of stream j. Stream 0 uses the seed
// itself, so the default seed still reproduces the repository's
// streams; the others are scrambled (splitmix64) so that nearby seeds
// share no streams.
func streamSeed(seed int64, j int) int64 {
	if j == 0 {
		return seed
	}
	z := uint64(seed) + uint64(j)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 2)
}

var workloads = map[string]func(seed int64, tr *tracer) (*sample, error){
	"fleet-steady": func(seed int64, tr *tracer) (*sample, error) { return runFleet(fleetSteady, seed, tr) },
	"fleet-faults": func(seed int64, tr *tracer) (*sample, error) { return runFleet(fleetFaults, seed, tr) },
	"paper-grid":   runGrid,
}

// endToEnd and perLayer name the reported metrics with their units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"host_req_per_s", "req/s"},
	{"alloc_mb", "MB"},
	{"mallocs_k", "k"},
	{"rss_peak_mb", "MB"},
	{"sim_throughput_rps", "req/s"},
	{"sim_lat_p50_ms", "ms"},
	{"slo_attainment", "fraction"},
}

var perLayer = []metricDef{
	{"sim_lat_p99_ms", "ms"},
	{"sim_lat_p99.99_ms", "ms"},
	{"workload.next_s", "s"},
	{"cluster.pick_calls", "count"},
	{"cluster.pick_s", "s"},
	{"cluster.pick_us_p50", "us"},
	{"cluster.pick_us_p99", "us"},
	{"cluster.pick_resident_frac", "fraction"},
	{"cluster.imbalance", "ratio"},
	{"cluster.new_s", "s"},
	{"cluster.plan_s", "s"},
	{"cluster.breaker_trips", "count"},
	{"core.new_system_s", "s"},
	{"core.serve_s", "s"},
	{"core.serve_self_s", "s"},
	{"pool.victims_calls", "count"},
	{"pool.victims_s", "s"},
	{"pool.victims_us_p99", "us"},
	{"pool.switches_per_kreq", "count"},
	{"pool.evictions_per_kreq", "count"},
	{"pool.load_wait_s_per_kreq", "s"},
	{"xfer.host_hit_frac", "fraction"},
	{"executor.mean_batch", "requests"},
	{"executor.busy_frac", "fraction"},
	{"profiler.matrix_s", "s"},
	{"profiler.search_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
}

type metricDef struct{ name, unit string }

// sample is one iteration: a full set-up and one measured phase.
type sample struct {
	setup       time.Duration
	host        time.Duration // measured phase
	alloc       uint64
	mallocs     uint64
	gcCycles    uint32
	gcPause     time.Duration
	arrivals    int64
	completions int64
	check       error // a failed output check
	sim         map[string]float64
	layer       map[string]float64
	digest      string
}

func newSample() *sample {
	return &sample{sim: map[string]float64{}, layer: map[string]float64{}}
}

// measure runs fn as part of the measured phase, adding its host time,
// allocations and garbage collections to the sample.
func (s *sample) measure(fn func() error) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := fn()
	s.host += time.Since(t0)
	runtime.ReadMemStats(&after)
	s.alloc += after.TotalAlloc - before.TotalAlloc
	s.mallocs += after.Mallocs - before.Mallocs
	s.gcCycles += after.NumGC - before.NumGC
	s.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return err
}

func (s *sample) reqPerSec() float64 { return float64(s.completions) / s.host.Seconds() }

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "fleet-steady", "workload: fleet-steady, fleet-faults or paper-grid")
	seed := flag.Int64("seed", defaultSeed, "workload seed; the default reproduces the repository's streams")
	seconds := flag.Float64("seconds", 20, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	spans := flag.String("spans", "", "with --trace 1, a directory to write the last iteration's spans to as <workload>-spans.json")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := bench(*name, run, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench runs iterations of one workload until the time budget is spent
// and summarizes them. Each reported host metric is the median over
// iterations. Each simulated metric is the median over streams; it is
// the same in every iteration of one stream.
func bench(name string, run func(int64, *tracer) (*sample, error), seed int64, budget time.Duration, traced bool, spansDir string) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var samples []*sample
	var layers []map[string]float64
	start := time.Now()
	for len(samples) < streams || time.Since(start) < budget {
		if tr != nil {
			tr.forget()
		}
		runtime.GC()
		s, err := run(streamSeed(seed, len(samples)%streams), tr)
		if err != nil {
			return nil, err
		}
		samples = append(samples, s)
		if tr != nil {
			layers = append(layers, layerMetrics(s, tr))
		}
	}
	if tr != nil && spansDir != "" {
		if err := writeSpans(filepath.Join(spansDir, name+"-spans.json"), tr.all()); err != nil {
			return nil, err
		}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	first := samples[:streams] // each stream's first iteration
	for i, s := range samples {
		j := i % streams
		fmt.Printf("iteration %d (stream %d): setup %.4f s, serve %.4f s, %.1f req/s\n", i, j, s.setup.Seconds(), s.host.Seconds(), s.reqPerSec())
		res.Attempted += s.arrivals
		switch {
		case s.check != nil:
			fmt.Printf("iteration %d: check failed: %v\n", i, s.check)
			res.Correct = false
			res.Failed += s.arrivals
		case s.digest != first[j].digest:
			fmt.Printf("iteration %d: digest %s differs from iteration %d's %s\n", i, s.digest, j, first[j].digest)
			res.Correct = false
			res.Failed += s.arrivals
		default:
			res.Failed += s.arrivals - s.completions
		}
	}
	host := median(samples, (*sample).reqPerSec)
	digests := make([]string, streams)
	for j, s := range first {
		digests[j] = s.digest
	}
	all, err := digest(digests)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d: %d iterations over %d streams\n", name, seed, len(samples), streams)
	fmt.Printf("stream digests %v\n", digests)
	fmt.Printf("digest %s\n", all)
	if traced {
		fmt.Printf("traced host_req_per_s %.1f\n", host)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{medianOf(layers, m.name), m.unit}
		}
	} else {
		var rusage syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &rusage); err != nil {
			return nil, err
		}
		measured := map[string]float64{
			"setup_s":        median(samples, func(s *sample) float64 { return s.setup.Seconds() }),
			"host_req_per_s": host,
			"alloc_mb":       median(samples, func(s *sample) float64 { return float64(s.alloc) / 1e6 }),
			"mallocs_k":      median(samples, func(s *sample) float64 { return float64(s.mallocs) / 1e3 }),
			"rss_peak_mb":    float64(rusage.Maxrss) * 1024 / 1e6, // Maxrss is in KiB on Linux
		}
		for _, m := range endToEnd {
			v, ok := measured[m.name]
			if !ok {
				v = median(first, func(s *sample) float64 { return s.sim[m.name] })
			}
			res.Metrics[m.name] = metric{v, m.unit}
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// layerMetrics derives one iteration's per-layer metrics from its spans
// and its reports.
func layerMetrics(s *sample, tr *tracer) map[string]float64 {
	durs, self := layerTimes(tr.all(), len(tr.main.spans))
	sec := func(name string) float64 {
		var sum int64
		for _, d := range durs[name] {
			sum += d
		}
		return float64(sum) / 1e9
	}
	us := func(name string, p float64) float64 {
		d := durs[name]
		if len(d) == 0 {
			return 0
		}
		xs := make([]float64, len(d))
		for i, v := range d {
			xs[i] = float64(v) / 1e3
		}
		return stats.Percentile(xs, p)
	}
	m := map[string]float64{
		"workload.next_s":     sec(spanNext),
		"cluster.pick_calls":  float64(len(durs[spanPick])),
		"cluster.pick_s":      sec(spanPick),
		"cluster.pick_us_p50": us(spanPick, 50),
		"cluster.pick_us_p99": us(spanPick, 99),
		"cluster.new_s":       sec(spanClusterNew),
		"cluster.plan_s":      sec(spanPlan),
		"core.new_system_s":   sec(spanNewSystem),
		"core.serve_s":        sec(spanServe),
		"core.serve_self_s":   float64(self[spanServe]) / 1e9,
		"pool.victims_calls":  float64(len(durs[spanVictims])),
		"pool.victims_s":      sec(spanVictims),
		"pool.victims_us_p99": us(spanVictims, 99),
		"profiler.matrix_s":   sec(spanProfilerMatrix),
		"profiler.search_s":   sec(spanProfilerSearch),
		"runtime.gc_cycles":   float64(s.gcCycles),
		"runtime.gc_pause_ms": s.gcPause.Seconds() * 1e3,
	}
	for k, v := range s.layer {
		m[k] = v
	}
	return m
}

func median(samples []*sample, f func(*sample) float64) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = f(s)
	}
	return stats.Percentile(xs, 50)
}

func medianOf(ms []map[string]float64, name string) float64 {
	xs := make([]float64, len(ms))
	for i, m := range ms {
		xs[i] = m[name]
	}
	return stats.Percentile(xs, 50)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// digest hashes the simulated outputs. Values encode as JSON, which
// follows pointers and orders map keys.
func digest(vs ...any) (string, error) {
	b, err := json.Marshal(vs)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:8]), nil
}

// sketchDigest reduces a latency sketch to values that determine its
// reported statistics.
func sketchDigest(s *stats.Sketch) []float64 {
	out := []float64{float64(s.Count()), s.Sum(), s.Min(), s.Max()}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999} {
		out = append(out, s.Quantile(q))
	}
	return out
}
