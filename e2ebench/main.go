// Command e2ebench is the repository's end-to-end benchmark. It runs the
// hinetsim pipeline in one process, through each layer's public functions
// and in the CLI's order: build (adversary.NewHiNet, token.Spread), check
// (hinet.Model.CheckValid), record (ctvg.RecordDeltas), run (sim.Run with
// core.Alg1 or core.Alg2, engine serial) and flush (the obs, provenance
// and recorder sinks).
//
// It repeats whole pipeline iterations for -seconds, checks each
// iteration's output, and prints one JSON result as the last line of
// standard output. With -trace 0 the result holds the end-to-end metrics
// of untraced iterations; with -trace 1 it holds the per-layer metrics of
// traced iterations, interleaved with untraced ones to measure the
// tracing overhead. Progress goes to standard error.
//
//	e2ebench -workload model-check -seed 1 -seconds 20 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sim"
)

// endToEnd are the metrics of an untraced run, perLayer those of a traced
// run; BENCHMARK.json lists the same names.
var (
	endToEnd = []string{"wall_s", "cpu_s", "setup_s", "peak_rss_mb", "alloc_mb", "allocs", "pass_ratio"}
	perLayer = layerNames()
)

func layerNames() []string {
	names := []string{
		"adversary.build_s", "adversary.ns_per_window", "adversary.windows",
		"hinet.check_s", "hinet.validate_ns_per_round", "hinet.hierarchy_stable_ns_per_window",
		"hinet.stable_subgraph_ns_per_window", "hinet.head_subgraph_ns_per_window",
		"hinet.linkage_ns_per_window", "hinet.alloc_mb",
		"ctvg.record_s", "ctvg.delta_edges", "ctvg.delta_roles", "ctvg.trace_live_mb",
		"sim.run_s", "sim.ns_per_node_round", "sim.allocs_per_round", "sim.rounds", "sim.messages",
	}
	for st := sim.Stage(0); st < sim.NumStages; st++ {
		names = append(names, "sim.stage."+st.String()+".ns_per_node_round")
	}
	return append(names,
		"sim.tokens_injected", "sim.peak_outstanding",
		"core.tokens_per_node", "core.messages_per_node",
		"wire.bytes_per_token",
		"faults.drops",
		"obs.flush_s", "obs.metrics_bytes", "obs.timing_bytes", "provenance.bytes",
		"provenance.redundant_ratio", "health.violations", "obs.overhead_ratio",
		"go.gc_cycles", "go.gc_pause_s", "go.gc_cpu_fraction",
		"trace.overhead_ratio", "trace.unattributed_s", "trace.wall_s",
	)
}

// unit names a metric's unit from its name.
func unit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, ".ns_per_"), strings.Contains(name, "_ns_per_"):
		return "ns"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "bytes"), strings.HasPrefix(name, "wire.bytes_per"):
		return "B"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_fraction"):
		return "ratio"
	}
	return "count"
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	n        int    // node count; 0 means the workload's default (tests only)
	dir      string // scratch directory for stream files and spans
}

func main() {
	var cfg config
	var traced int
	flag.StringVar(&cfg.workload, "workload", "", "workload name (model-check, alg1-stream, alg1-observed, alg2-churn)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "how long to repeat pipeline iterations")
	flag.IntVar(&traced, "trace", 0, "1 reports per-layer metrics from traced iterations, 0 end-to-end metrics")
	flag.StringVar(&cfg.dir, "dir", os.TempDir(), "scratch directory for the observed workload's stream files and the traced run's spans")
	flag.Parse()
	if traced != 0 && traced != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traced == 1
	// The engine runs serial; one P keeps the GC on the same core, so a
	// busy second core on the shared host does not change the timings.
	runtime.GOMAXPROCS(1)
	res, err := run(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// iteration is one measured pipeline iteration.
type iteration struct {
	o               *outcome
	err             error
	allocBytes      uint64
	mallocs         uint64
	heapBase        uint64 // live heap before the iteration, after a GC
	gcCPU, totalCPU float64
	cpu             time.Duration // process user + system time
	// peakRSS is the peak resident set inside the iteration (MB);
	// rssErr reports that it could not be reset or read.
	peakRSS float64
	rssErr  error
}

// bench repeats iterations of one plan.
type bench struct {
	p             *plan
	defaultInputs bool
	log           io.Writer
	attempted     int
	failed        int
}

func run(cfg config, log io.Writer) (*result, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	n := cfg.n
	if n == 0 {
		n = w.n
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.dir, "e2ebench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{
		p:             newPlan(w, n, cfg.seed, dir),
		defaultInputs: n == w.n && cfg.seed == 1,
		log:           log,
	}
	deadline := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return b.traced(deadline, filepath.Join(cfg.dir, w.name+"-spans.jsonl"))
	}
	return b.untraced(deadline)
}

// once runs and verifies one iteration after a full GC that also returns
// the free heap to the OS, so that every iteration starts from the same
// live heap and resident set, as a fresh hinetsim process does.
func (b *bench) once(tr *tracer) iteration {
	var it iteration
	var before, after runtime.MemStats
	debug.FreeOSMemory()
	rssErr := resetPeakRSS()
	runtime.ReadMemStats(&before)
	it.gcCPU, it.totalCPU = gcCPU()
	cpu0 := processCPU()
	it.o, it.err = b.p.safeIterate(tr)
	it.cpu = processCPU() - cpu0
	if it.peakRSS, it.rssErr = peakRSSMB(); it.rssErr == nil {
		it.rssErr = rssErr
	}
	gc, total := gcCPU()
	runtime.ReadMemStats(&after)
	it.gcCPU, it.totalCPU = gc-it.gcCPU, total-it.totalCPU
	it.heapBase = before.HeapAlloc
	it.allocBytes = after.TotalAlloc - before.TotalAlloc
	it.mallocs = after.Mallocs - before.Mallocs
	if it.o != nil {
		if err := it.o.readSinks(); it.err == nil {
			it.err = err
		}
		if it.err == nil {
			it.err = b.p.verify(it.o, b.defaultInputs)
		}
		// Keep what the traced-mode probes need, not the node states or
		// the recorder's ring.
		it.o.nodes, it.o.sinks = nil, nil
	}
	b.attempted++
	if it.err != nil {
		b.failed++
		if b.failed <= 5 {
			fmt.Fprintf(b.log, "%s: iteration %d failed: %v\n", b.p.name, b.attempted, it.err)
		}
	}
	return it
}

// safeIterate reports a panic inside the program as a failed iteration.
func (p *plan) safeIterate(tr *tracer) (o *outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			o, err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	return p.iterate(tr)
}

// untraced reports the fastest of the run's iteration times, and the
// median of its per-iteration peak resident sets and allocation counts.
// Other tenants of a shared host slow every iteration for seconds to
// minutes at a time, by up to 60%; the fastest of many short iterations
// reads the program's own cost, which the median of a run that falls in
// such a period does not.
func (b *bench) untraced(deadline time.Duration) (*result, error) {
	var walls, cpus, setups, rss, allocMB, allocs []float64
	// A verified warm-up iteration, left out of the samples, faults in
	// the heap and the page cache the measured ones reuse.
	b.once(nil)
	warm := b.attempted
	start := time.Now()
	for b.attempted == warm || time.Since(start) < deadline {
		it := b.once(nil)
		if it.rssErr != nil {
			return nil, it.rssErr
		}
		if it.err != nil {
			continue
		}
		walls = append(walls, it.o.wall.Seconds())
		rss = append(rss, it.peakRSS)
		cpus = append(cpus, it.cpu.Seconds())
		setups = append(setups, it.o.setup.Seconds())
		allocMB = append(allocMB, float64(it.allocBytes)/1e6)
		allocs = append(allocs, float64(it.mallocs))
		fmt.Fprintf(b.log, "%s: iteration %d: wall %.3fs cpu %.3fs setup %.3fs alloc %.1f MB %d objects; %+v\n",
			b.p.name, b.attempted, it.o.wall.Seconds(), it.cpu.Seconds(), it.o.setup.Seconds(),
			float64(it.allocBytes)/1e6, it.mallocs, digestOf(it.o))
	}
	vals := map[string]float64{
		"wall_s":      fastest(walls),
		"cpu_s":       fastest(cpus),
		"setup_s":     fastest(setups),
		"peak_rss_mb": median(rss),
		"alloc_mb":    median(allocMB),
		"allocs":      median(allocs),
		"pass_ratio":  float64(b.attempted-b.failed) / float64(b.attempted),
	}
	fmt.Fprintf(b.log, "%s: %d iterations, %d failed; wall %.3fs at the fastest, %.3fs at the median\n",
		b.p.name, b.attempted, b.failed, vals["wall_s"], median(walls))
	return b.result(endToEnd, vals), nil
}

// traced alternates a traced iteration, followed by its probes, with an
// untraced one. The per-layer metrics come from the traced iteration with
// the median wall time, so that its five step spans and the unattributed
// remainder add up to its wall time exactly. The spans of every traced
// iteration are written to spansPath at the end.
func (b *bench) traced(deadline time.Duration, spansPath string) (*result, error) {
	tr := newTracer()
	type sample struct {
		wall   float64
		layers map[string]float64
	}
	var samples []sample
	var untracedWalls []float64
	start := time.Now()
	for b.attempted == 0 || time.Since(start) < deadline {
		it := b.once(tr)
		if it.err == nil {
			pr, err := b.p.probe(it.o, it.heapBase)
			if err != nil {
				b.failed++
				fmt.Fprintf(b.log, "%s: probe after iteration %d failed: %v\n", b.p.name, b.attempted, err)
			} else {
				frac := 0.0
				if it.totalCPU > 0 {
					frac = it.gcCPU / it.totalCPU
				}
				l := b.p.layerMetrics(tr, it.o, pr, frac)
				samples = append(samples, sample{l["trace.wall_s"], l})
				fmt.Fprintf(b.log, "%s: traced iteration %d: wall %.3fs\n", b.p.name, b.attempted, l["trace.wall_s"])
			}
		}
		if u := b.once(nil); u.err == nil {
			untracedWalls = append(untracedWalls, u.o.wall.Seconds())
		}
	}
	vals := map[string]float64{}
	if len(samples) > 0 {
		slices.SortFunc(samples, func(a, b sample) int {
			switch {
			case a.wall < b.wall:
				return -1
			case a.wall > b.wall:
				return 1
			}
			return 0
		})
		vals = samples[(len(samples)-1)/2].layers
		walls := make([]float64, len(samples))
		for i, s := range samples {
			walls[i] = s.wall
		}
		if u := median(untracedWalls); u > 0 {
			vals["trace.overhead_ratio"] = median(walls) / u
		}
	}
	if err := writeSpans(tr, spansPath); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.log, "%s: spans written to %s\n", b.p.name, spansPath)
	return b.result(perLayer, vals), nil
}

func writeSpans(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = tr.writeJSONL(w)
	if ferr := w.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// result reports every name, 0 where a failed run measured nothing.
func (b *bench) result(names []string, vals map[string]float64) *result {
	res := &result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed,
		Metrics: make(map[string]metric, len(names)),
	}
	for _, name := range names {
		res.Metrics[name] = metric{Value: vals[name], Unit: unit(name)}
	}
	return res
}

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// fastest returns the smallest value; 0 for none.
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS sets the process's peak resident set (VmHWM) back to its
// current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak resident set: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak resident set: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak resident set: no VmHWM in /proc/self/status")
}
