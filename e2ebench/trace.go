package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/ctvg"
	"repro/internal/hinet"
	"repro/internal/sim"
	"repro/internal/tvg"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the public function it calls.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Counts taken at the same two boundaries: heap objects and bytes
	// allocated, GC cycles completed and GC pause time inside the span.
	Allocs  uint64 `json:"allocs"`
	Bytes   uint64 `json:"bytes"`
	GCs     uint32 `json:"gcs"`
	PauseNs uint64 `json:"pause_ns"`
}

func (s *span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and costs one comparison per boundary.
type tracer struct {
	epoch time.Time
	spans []span
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	// A step's clock is read outside its counts, at both ends, so that
	// the stop-the-world of ReadMemStats lands inside the step and never
	// in the gaps between steps; a root's is read inside its counts, so
	// that its own ReadMemStats lands outside it.
	var start int64
	if parent >= 0 {
		start = int64(time.Since(t.epoch))
	}
	runtime.ReadMemStats(&t.ms)
	if parent < 0 {
		start = int64(time.Since(t.epoch))
	}
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Start: start,
		Allocs: t.ms.Mallocs, Bytes: t.ms.TotalAlloc, GCs: t.ms.NumGC, PauseNs: t.ms.PauseTotalNs,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	if s.Parent < 0 {
		s.End = int64(time.Since(t.epoch))
	}
	runtime.ReadMemStats(&t.ms)
	if s.Parent >= 0 {
		s.End = int64(time.Since(t.epoch))
	}
	s.Allocs = t.ms.Mallocs - s.Allocs
	s.Bytes = t.ms.TotalAlloc - s.Bytes
	s.GCs = t.ms.NumGC - s.GCs
	s.PauseNs = t.ms.PauseTotalNs - s.PauseNs
}

// liveHeap runs a full GC and returns the live heap, inside a "heap" span
// under parent. The span is a probe, not a pipeline step: the traced wall
// time leaves it out.
func (t *tracer) liveHeap(parent int) uint64 {
	if t == nil {
		return 0
	}
	id := t.begin("heap", parent)
	runtime.GC()
	runtime.ReadMemStats(&t.ms)
	live := t.ms.HeapAlloc
	t.end(id)
	return live
}

// child returns the span named name whose parent is parent, or a zero
// span when the step did not run.
func (t *tracer) child(parent int, name string) *span {
	for i := range t.spans {
		if t.spans[i].Parent == parent && t.spans[i].Name == name {
			return &t.spans[i]
		}
	}
	return &span{}
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// steps are the five top-level spans of an iteration, in pipeline order,
// with the per-layer metric that reports each one's duration.
var steps = []struct{ span, metric string }{
	{"build", "adversary.build_s"},
	{"check", "hinet.check_s"},
	{"record", "ctvg.record_s"},
	{"run", "sim.run_s"},
	{"flush", "obs.flush_s"},
}

// gcCPU reads the runtime's cumulative GC CPU time and total available
// CPU time, in seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// probes are per-layer measurements taken after a traced iteration, on
// fresh inputs or retained outputs, outside the iteration's wall time.
type probes struct {
	walked  time.Duration // At + HierarchyAt over the horizon
	windows int           // stability windows in the horizon

	// Definition-8 predicates, called in CheckWindow order.
	validate, hierStable, stableSub, headSub, linkage time.Duration
	checkRounds, checkWindows                         int

	sinksOff time.Duration // the engine on the recorded trace, sinks off
	liveMB   float64       // live heap the record step added
}

// walk times the adversary alone: a fresh, identically seeded instance
// stepped through every round of the horizon in order, so it draws its
// randomness exactly as the pipeline's instance does.
func (pr *probes) walk(d ctvg.Dynamic, horizon int) {
	st, _ := d.(ctvg.Stability)
	t0 := time.Now()
	for r := 0; r < horizon; r++ {
		d.HierarchyAt(r)
		d.At(r)
		if st == nil || r == 0 || st.StableUntil(r-1) < r {
			pr.windows++
		}
	}
	pr.walked = time.Since(t0)
}

// checker times the public predicates hinet.Model.CheckValid is made of,
// on an already walked dynamic so that adversary work stays out of them:
// Hierarchy.Validate per round, then per window HierarchyStable, the
// stable subgraph, HeadSubgraph and HeadLinkage. CheckWindow calls
// HeadSubgraph twice (through HeadConnectivity and LHopHeadConnectivity)
// and builds the stable subgraph inside each call.
func (pr *probes) checker(d ctvg.Dynamic, T, phases int) error {
	for r := 0; r < phases*T; r++ {
		h, g := d.HierarchyAt(r), d.At(r)
		t0 := time.Now()
		err := h.Validate(g)
		pr.validate += time.Since(t0)
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
	}
	for p := 0; p < phases; p++ {
		from := p * T
		heads := d.HierarchyAt(from).Heads()
		t0 := time.Now()
		stable := hinet.HierarchyStable(d, from, T)
		t1 := time.Now()
		tvg.StableSubgraph(d, from, T)
		t2 := time.Now()
		ups, connected := hinet.HeadSubgraph(d, from, T)
		t3 := time.Now()
		linkage, linked := hinet.HeadLinkage(ups, heads)
		t4 := time.Now()
		pr.hierStable += t1.Sub(t0)
		pr.stableSub += t2.Sub(t1)
		pr.headSub += t3.Sub(t2)
		pr.linkage += t4.Sub(t3)
		if !stable || !connected || !linked || linkage > l {
			return fmt.Errorf("phase %d: stable=%v connected=%v linkage=%d/%v", p, stable, connected, linkage, linked)
		}
	}
	pr.checkRounds, pr.checkWindows = phases*T, phases
	return nil
}

// probe runs every probe that applies to the workload after the traced
// iteration o. heapBase is the live heap before the iteration.
func (p *plan) probe(o *outcome, heapBase uint64) (*probes, error) {
	pr := &probes{}
	if o.trace != nil {
		pr.liveMB = float64(int64(o.liveHeap)-int64(heapBase)) / 1e6
	}
	horizon := o.met.Rounds
	if p.check {
		horizon = p.phases * p.T
	}
	adv := p.newAdversary()
	pr.walk(adv, horizon)
	if p.check {
		if err := pr.checker(adv, p.T, p.phases); err != nil {
			return nil, fmt.Errorf("checker probe: %w", err)
		}
	}
	if p.observed {
		t0 := time.Now()
		if _, err := sim.Run(o.trace, p.protocol().Nodes(o.assign), o.assign, p.baseOptions()); err != nil {
			return nil, fmt.Errorf("sinks-off run: %w", err)
		}
		pr.sinksOff = time.Since(t0)
	}
	return pr, nil
}

// layerMetrics derives every per-layer metric from one traced iteration:
// its spans, its outputs, the probes after it and its GC CPU deltas.
func (p *plan) layerMetrics(tr *tracer, o *outcome, pr *probes, gcFrac float64) map[string]float64 {
	m := map[string]float64{}
	top, heap := &tr.spans[o.top], tr.child(o.top, "heap")
	wall := top.seconds() - heap.seconds()
	m["trace.wall_s"] = wall
	attributed := 0.0
	for _, st := range steps {
		s := tr.child(o.top, st.span).seconds()
		m[st.metric] = s
		attributed += s
	}
	m["trace.unattributed_s"] = wall - attributed
	m["go.gc_cycles"] = float64(top.GCs - heap.GCs)
	m["go.gc_pause_s"] = float64(top.PauseNs-heap.PauseNs) / 1e9
	m["go.gc_cpu_fraction"] = gcFrac

	m["adversary.windows"] = float64(pr.windows)
	m["adversary.ns_per_window"] = perUnit(pr.walked, pr.windows)

	m["hinet.alloc_mb"] = float64(tr.child(o.top, "check").Bytes) / 1e6
	m["hinet.validate_ns_per_round"] = perUnit(pr.validate, pr.checkRounds)
	m["hinet.hierarchy_stable_ns_per_window"] = perUnit(pr.hierStable, pr.checkWindows)
	m["hinet.stable_subgraph_ns_per_window"] = perUnit(pr.stableSub, pr.checkWindows)
	m["hinet.head_subgraph_ns_per_window"] = perUnit(pr.headSub, pr.checkWindows)
	m["hinet.linkage_ns_per_window"] = perUnit(pr.linkage, pr.checkWindows)

	m["ctvg.delta_edges"], m["ctvg.delta_roles"] = 0, 0
	if o.trace != nil {
		e, r := o.trace.Changes()
		m["ctvg.delta_edges"], m["ctvg.delta_roles"] = float64(e), float64(r)
	}
	m["ctvg.trace_live_mb"] = pr.liveMB

	met := o.met
	run := tr.child(o.top, "run")
	nodeRounds := float64(p.n) * float64(met.Rounds)
	m["sim.rounds"] = float64(met.Rounds)
	m["sim.messages"] = float64(met.Messages)
	m["sim.ns_per_node_round"] = run.seconds() * 1e9 / nodeRounds
	m["sim.allocs_per_round"] = float64(run.Allocs) / float64(met.Rounds)
	for _, b := range o.timing.Breakdown() {
		m["sim.stage."+b.Stage+".ns_per_node_round"] = float64(b.WallNs) / nodeRounds
	}
	m["sim.tokens_injected"] = float64(met.TokensInjected)
	m["sim.peak_outstanding"] = float64(met.PeakOutstanding)

	m["core.tokens_per_node"] = float64(met.TokensSent) / float64(p.n)
	m["core.messages_per_node"] = float64(met.Messages) / float64(p.n)
	m["wire.bytes_per_token"] = 0
	if met.TokensSent > 0 {
		m["wire.bytes_per_token"] = float64(met.BytesSent) / float64(met.TokensSent)
	}
	m["faults.drops"] = float64(met.Drops)

	m["obs.metrics_bytes"] = float64(o.metricsBytes)
	m["obs.timing_bytes"] = float64(o.timingBytes)
	m["provenance.bytes"] = float64(o.provBytes)
	m["provenance.redundant_ratio"] = 0
	if d := met.FirstDeliveries + met.RedundantDeliveries; d > 0 {
		m["provenance.redundant_ratio"] = float64(met.RedundantDeliveries) / float64(d)
	}
	m["health.violations"] = float64(o.healthViolations)
	m["obs.overhead_ratio"] = 0
	if pr.sinksOff > 0 {
		m["obs.overhead_ratio"] = run.seconds() / pr.sinksOff.Seconds()
	}
	return m
}

func perUnit(d time.Duration, units int) float64 {
	if units == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(units)
}
