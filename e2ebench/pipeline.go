package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/hinet"
	"repro/internal/obs"
	"repro/internal/obs/health"
	"repro/internal/obs/recorder"
	"repro/internal/provenance"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/wire"
	"repro/internal/xrand"
)

const (
	k     = 16 // tokens
	theta = 50 // head-pool bound θ
	l     = 2  // head linkage bound L
)

// workload is one fixed set of pipeline inputs. Which of the five steps
// (build, check, record, run, flush) do real work depends on its flags.
type workload struct {
	name string
	// n is the default node count.
	n int
	// alpha is Algorithm 1's progress coefficient α (the phase length is
	// Theorem 1's T = k + α·L); 0 selects Algorithm 2 on (1, L)-HiNets.
	alpha int
	// reaffil returns the member re-affiliations per phase boundary at n.
	reaffil   func(n int) int
	headChurn int
	churn     int
	// check runs the Definition-8 model check; forward streams the
	// adversary (ForwardOnly); record replays a ctvg.RecordDeltas trace;
	// observed attaches every sink (recorder, provenance, timing, all to
	// files) plus i.i.d. loss; arrivals injects Poisson traffic.
	check, forward, record, observed, arrivals bool
	// stopWhenComplete ends the run at completion instead of spending the
	// whole round budget; sizeFn turns on wire-byte accounting.
	stopWhenComplete, sizeFn bool
	// failover is Algorithm 1's head-silence window (core.Failover); 0
	// runs the paper's plain protocol.
	failover int
}

func constant(c int) func(int) int { return func(int) int { return c } }
func perFifty(n int) int           { return n / 50 }

// workloads are the benchmark's input sets, in BENCHMARK.json order.
// Their sizes keep an iteration's working set small and its time under a
// tenth of a second on a 2-core VM: a run then holds hundreds of
// iterations, and its fastest one is steady from run to run (see
// README.md, "Steadiness").
var workloads = []workload{
	// hinetsim -scenario hinet -n 1000 -k 16 -theta 50.
	{name: "model-check", n: 1000, alpha: 5, reaffil: constant(3), churn: 10,
		check: true, stopWhenComplete: true},
	// BenchmarkHiNet100k's configuration at 2k nodes.
	{name: "alg1-stream", n: 2000, alpha: 2, reaffil: perFifty, headChurn: 2,
		forward: true, sizeFn: true},
	// The same dynamics at 1k, recorded and replayed with every sink on.
	// Plain Algorithm 1 cannot finish under loss at this size (a member
	// that misses a head's broadcast never hears the token again), so it
	// runs the self-healing variant, as hinetsim -failover 3 does.
	{name: "alg1-observed", n: 1000, alpha: 2, reaffil: perFifty, headChurn: 2,
		forward: true, record: true, observed: true, sizeFn: true, failover: 3},
	// hinetsim -scenario onel -n 1000 -k 16 -theta 50 -arrival 1 -arrival-stop 300.
	{name: "alg2-churn", n: 1000, reaffil: constant(3), headChurn: 1, churn: 10,
		arrivals: true, stopWhenComplete: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	dropProb    = 0.05             // alg1-observed's i.i.d. loss
	arrivalStop = 300              // alg2-churn's arrival window
	healthSpec  = "pace,stall>=50" // alg1-observed's health rules
	ringDepth   = 512              // alg1-observed's flight-recorder depth
)

// plan is a workload instantiated at a node count and seed: everything
// an iteration needs that does not depend on the iteration itself.
type plan struct {
	workload
	seed uint64
	// T is the phase length, phases the Theorem-1 phase budget and
	// rounds the engine's round budget.
	T, phases, rounds int
	adv               adversary.HiNetConfig
	dir               string
}

func newPlan(w workload, n int, seed uint64, dir string) *plan {
	p := &plan{workload: w, seed: seed, dir: dir}
	p.n = n
	if w.alpha > 0 {
		p.T = core.Theorem1T(k, w.alpha, l)
		p.phases = core.Theorem1Phases(theta, w.alpha)
		p.rounds = p.phases * p.T
	} else {
		p.T = 1
		p.rounds = max(core.Theorem2Rounds(n), arrivalStop+4*n)
	}
	p.adv = adversary.HiNetConfig{
		N: n, Theta: theta, L: l, T: p.T,
		Reaffiliations: w.reaffil(n), HeadChurn: w.headChurn, ChurnEdges: w.churn,
	}
	return p
}

// newAdversary builds the workload's adversary from the seed.
func (p *plan) newAdversary() *adversary.HiNet {
	a := adversary.NewHiNet(p.adv, xrand.New(p.seed))
	if p.forward {
		a.ForwardOnly()
	}
	return a
}

func (p *plan) protocol() sim.Protocol {
	if p.alpha == 0 {
		return core.Alg2{}
	}
	if p.failover > 0 {
		return core.Alg1{T: p.T, Failover: &core.Failover{Window: p.failover}}
	}
	return core.Alg1{T: p.T}
}

// baseOptions are the engine options without any sink attached.
func (p *plan) baseOptions() sim.Options {
	opts := sim.Options{MaxRounds: p.rounds, StopWhenComplete: p.stopWhenComplete}
	if p.sizeFn {
		opts.SizeFn = wire.Size
	}
	if p.observed {
		opts.Faults = &sim.Faults{Seed: p.seed, DropProb: dropProb}
	}
	if p.arrivals {
		opts.Arrivals = &sim.Arrivals{Rate: 1, Seed: p.seed, Stop: arrivalStop}
	}
	return opts
}

// outcome is what one pipeline iteration produced, kept for the oracle
// and for the traced-mode metrics.
type outcome struct {
	wall, setup time.Duration
	met         *sim.Metrics
	nodes       []sim.Node
	assign      *token.Assignment
	trace       *ctvg.DeltaTrace // the recorded trace (record workloads)
	liveHeap    uint64           // live heap right after the record step (traced runs)
	timing      *obs.Timing      // the stage breakdown (traced or observed runs)
	sinks       *sinks           // the observation streams (observed workloads)
	// Read back from the streams by readSinks.
	metricsLines                         int
	metricsBytes, timingBytes, provBytes int64
	healthViolations                     int
	top                                  int // the iteration's root span (traced runs)
}

// readSinks reads the sizes and the metrics line count of the flushed
// streams, then deletes them.
func (o *outcome) readSinks() error {
	s := o.sinks
	if s == nil {
		return nil
	}
	defer s.remove()
	if h := s.rec.Health(); h != nil {
		o.healthViolations = h.Violations()
	}
	var err error
	if o.metricsBytes, err = fileSize(s.mPath); err != nil {
		return err
	}
	if o.timingBytes, err = fileSize(s.tPath); err != nil {
		return err
	}
	if o.provBytes, err = fileSize(s.pPath); err != nil {
		return err
	}
	o.metricsLines, err = countLines(s.mPath)
	return err
}

// sinks are the observation streams of an observed iteration.
type sinks struct {
	dir          string
	mf, tf, pf   *os.File
	rec          *recorder.Recorder
	tm           *obs.Timing
	tracer       *provenance.Tracer
	mPath, tPath string
	pPath        string
}

// openSinks creates the three stream files and the recorder-owned
// collector, the provenance tracer and the timing sink, wired as hinetsim
// wires -metrics, -provenance, -timing, -record and -health together.
func (p *plan) openSinks(opts *sim.Options) (*sinks, error) {
	dir, err := os.MkdirTemp(p.dir, p.name+"-")
	if err != nil {
		return nil, err
	}
	s := &sinks{dir: dir,
		mPath: filepath.Join(dir, "metrics.jsonl"),
		tPath: filepath.Join(dir, "timing.jsonl"),
		pPath: filepath.Join(dir, "provenance.jsonl"),
	}
	for _, f := range []struct {
		path string
		dst  **os.File
	}{{s.mPath, &s.mf}, {s.tPath, &s.tf}, {s.pPath, &s.pf}} {
		if *f.dst, err = os.Create(f.path); err != nil {
			s.close()
			s.remove()
			return nil, err
		}
	}
	rules, err := health.ParseRules(healthSpec)
	if err != nil {
		s.close()
		s.remove()
		return nil, err
	}
	s.tm = obs.NewTiming(obs.TimingConfig{Sink: s.tf})
	s.rec = recorder.New(recorder.Config{
		Obs: obs.Config{
			N: p.n, K: k, PhaseLen: p.T, Sink: s.mf, SizeFn: opts.SizeFn,
			Arrivals: opts.Arrivals != nil,
		},
		Depth: ringDepth, Rules: rules, Alpha: p.alpha, Prefix: p.name,
		FaultPlan: opts.Faults,
	})
	s.tracer = provenance.New(provenance.Config{
		Sink:   s.pf,
		Budget: &provenance.Budget{PhaseLen: p.T, Phases: p.phases, Alpha: p.alpha, Theta: theta},
		OnPace: func(v provenance.PaceViolation) { s.rec.Trigger("pace", v.Round) },
	})
	opts.Observer = s.rec.Observer()
	opts.Timing = s.rec.TimingSink(s.tm)
	opts.Tracer = s.tracer
	return s, nil
}

// flush writes out every stream and closes the files.
func (s *sinks) flush() error {
	err := s.tracer.Flush()
	if ferr := s.tm.Flush(); err == nil {
		err = ferr
	}
	if ferr := s.rec.Close(); err == nil {
		err = ferr
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return err
}

// remove deletes the stream files.
func (s *sinks) remove() { os.RemoveAll(s.dir) }

func (s *sinks) close() error {
	var err error
	for _, f := range []*os.File{s.mf, s.tf, s.pf} {
		if f == nil {
			continue
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// iterate runs the pipeline once, in the CLI's order: build (adversary
// and token assignment), check (Definition 8), record (window deltas),
// run (the engine, after the sinks are created) and flush (the sinks).
// A nil tracer adds no work; a live one records a span around each step
// that runs, and a "heap" probe span after the record step. Steps a
// workload skips get no span.
// The returned outcome is valid even on error, for the failure report.
func (p *plan) iterate(tr *tracer) (out *outcome, err error) {
	out = &outcome{}
	start := time.Now()
	out.top = tr.begin("iteration", -1)

	sp := tr.begin("build", out.top)
	adv := p.newAdversary()
	out.assign = token.Spread(p.n, k, xrand.New(p.seed+1))
	tr.end(sp)

	if p.check {
		sp = tr.begin("check", out.top)
		err = hinet.Model{T: p.T, L: l}.CheckValid(adv, p.phases)
		tr.end(sp)
		if err != nil {
			return out, fmt.Errorf("generated network violates the model: %w", err)
		}
	}

	var d ctvg.Dynamic = adv
	if p.record {
		sp = tr.begin("record", out.top)
		out.trace = ctvg.RecordDeltas(adv, p.rounds)
		d = out.trace
		tr.end(sp)
		out.liveHeap = tr.liveHeap(out.top)
	}

	sp = tr.begin("run", out.top)
	opts := p.baseOptions()
	if p.observed {
		if out.sinks, err = p.openSinks(&opts); err != nil {
			return out, err
		}
		out.timing = out.sinks.tm
	} else if tr != nil {
		// Traced runs read the engine's stage breakdown through the same
		// public timing sink the observed workload writes to a file.
		out.timing = obs.NewTiming(obs.TimingConfig{})
		opts.Timing = out.timing
	}
	// Setup ends where hinetsim calls sim.RunProtocol, which is these
	// two calls.
	out.setup = time.Since(start)
	out.nodes = p.protocol().Nodes(out.assign)
	out.met, err = sim.Run(d, out.nodes, out.assign, opts)
	tr.end(sp)
	if err != nil {
		if out.sinks != nil {
			out.sinks.close()
		}
		return out, err
	}

	if out.sinks != nil {
		sp = tr.begin("flush", out.top)
		err = out.sinks.flush()
		tr.end(sp)
	}
	tr.end(out.top)
	out.wall = time.Since(start)
	return out, err
}

func fileSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			n++
		}
	}
	return n, sc.Err()
}
