package sim_test

// The engine's fast paths may change timings, never results: the
// stability-window cache (engaged when the dynamic implements
// ctvg.Stability), delta-trace storage (ctvg.RecordDeltas: O(changes)
// storage behind a copy-on-write cursor), pulling rounds from the live
// adversary, and within-round parallelism. This file is the one oracle for
// all of them: one scenario table and one harness, checkCells, which the
// tests below run over one fast path each. Every cell runs with an observer
// collector and a provenance tracer attached and must reproduce the serial
// run over the snapshot ctvg.Trace exactly: identical Metrics,
// byte-identical observer and provenance JSONL. The tests ride `make race`,
// so the stateful delta cursor and the frozen views are checked under
// worker parallelism too. (They live in sim_test because obs and
// provenance import sim.)

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/tvg"
	"repro/internal/wire"
	"repro/internal/xrand"
)

// uncached hides the wrapped dynamic's StableUntil, so the engine
// refetches graph and hierarchy and rebuilds every view each round: the
// uncached reference path.
type uncached struct{ ctvg.Dynamic }

// runTraced executes proto on d with a JSONL collector and a provenance
// tracer attached, and returns the metrics plus both raw streams.
func runTraced(t *testing.T, d ctvg.Dynamic, proto sim.Protocol, assign *token.Assignment, phaseLen, rounds, workers int, crashAt map[int]int) (*sim.Metrics, []byte, []byte) {
	t.Helper()
	var obsSink, provSink bytes.Buffer
	col := obs.NewCollector(obs.Config{
		N: d.N(), K: assign.K, PhaseLen: phaseLen, Sink: &obsSink, SizeFn: wire.Size,
	})
	tr := provenance.New(provenance.Config{Sink: &provSink})
	opts := sim.Options{
		MaxRounds: rounds,
		Observer:  col.Observer(),
		Tracer:    tr,
		SizeFn:    wire.Size,
		Workers:   workers,
	}
	if crashAt != nil {
		opts.Faults = &sim.Faults{CrashAt: crashAt}
	}
	met := sim.MustRunProtocol(d, proto, assign, opts)
	if err := col.Flush(); err != nil {
		t.Fatalf("collector: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("tracer: %v", err)
	}
	return met, obsSink.Bytes(), provSink.Bytes()
}

// scenario is one row of the equivalence matrix.
type scenario struct {
	name     string
	live     func() ctvg.Dynamic // builds a fresh live dynamic
	proto    sim.Protocol
	assign   *token.Assignment
	phaseLen int
	rounds   int
	crashAt  map[int]int
}

// scenarios is the shared matrix: an n=80, θ=12 churn-heavy HiNet under
// each HiNet protocol, plus the flood baseline on a star.
func scenarios() []scenario {
	const n, k, alpha, L = 80, 8, 2, 2
	theta := 12
	T := core.Theorem1T(k, alpha, L)
	rounds := core.Theorem1Phases(theta, alpha) * T
	hinetAdv := func() ctvg.Dynamic {
		return adversary.NewHiNet(adversary.HiNetConfig{
			N: n, Theta: theta, L: L, T: T,
			Reaffiliations: 6, HeadChurn: 2, // churn-heavy: every boundary moves nodes and replaces heads
		}, xrand.New(1))
	}
	assign := token.Spread(n, k, xrand.New(2))
	// Crashes land strictly inside stability windows, so the crashed-node
	// bookkeeping must work against frozen views; under failover they also
	// drive acting heads, floods and NACK re-uploads.
	crashAt := map[int]int{5: 3, 33: T + 3, 61: 2*T + 7}

	const starN = 60
	star := func() ctvg.Dynamic { return sim.NewFlat(tvg.Static{G: graph.Star(starN, 0)}) }

	return []scenario{
		{"alg1", hinetAdv, core.Alg1{T: T}, assign, T, rounds, crashAt},
		// Alg2 relays broadcast their full set every round.
		{"alg2", hinetAdv, core.Alg2{}, assign, T, rounds, nil},
		{"alg1-failover", hinetAdv, core.Alg1{T: T, Failover: &core.Failover{Window: 2}}, assign, T, rounds, crashAt},
		{"alg2-failover", hinetAdv, core.Alg2{Failover: &core.Failover{Window: 2}}, assign, T, rounds, crashAt},
		// The flood baseline on a star: the topology that most stresses
		// the degree-aware shard partition (one hub holds half of all edge
		// endpoints).
		{"flood-star", star, baseline.Flood{}, token.Spread(starN, 6, xrand.New(3)), 1, baseline.FloodRounds(starN), nil},
	}
}

// checkCells runs every scenario as a subtest: first the serial reference
// over the snapshot trace, then the scenario on dynamic(sc, snap) once per
// worker count, each of which must reproduce the reference exactly.
func checkCells(t *testing.T, dynamic func(sc scenario, snap *ctvg.Trace) ctvg.Dynamic, workers ...int) {
	t.Helper()
	for _, sc := range scenarios() {
		t.Run(sc.name, func(t *testing.T) {
			snap := ctvg.Record(sc.live(), sc.rounds)
			if s := snap.StableUntil(0); s <= 0 {
				t.Fatalf("trace advertises no stable window (StableUntil(0)=%d); the cache would never engage", s)
			}
			refMet, refObs, refProv := runTraced(t, snap, sc.proto, sc.assign, sc.phaseLen, sc.rounds, 1, sc.crashAt)
			if len(refObs) == 0 || len(refProv) == 0 {
				t.Fatal("snapshot reference run produced empty streams")
			}
			for _, w := range workers {
				cell := fmt.Sprintf("workers=%d", w)
				met, obsJSON, provJSON := runTraced(t, dynamic(sc, snap), sc.proto, sc.assign, sc.phaseLen, sc.rounds, w, sc.crashAt)
				if !reflect.DeepEqual(met, refMet) {
					t.Errorf("%s: metrics diverge:\n  got  %+v\n  want %+v", cell, met, refMet)
				}
				if !bytes.Equal(obsJSON, refObs) {
					t.Errorf("%s: observer JSONL diverges from the serial snapshot run (%d vs %d bytes)",
						cell, len(obsJSON), len(refObs))
				}
				if !bytes.Equal(provJSON, refProv) {
					t.Errorf("%s: provenance JSONL diverges from the serial snapshot run (%d vs %d bytes)",
						cell, len(provJSON), len(refProv))
				}
			}
		})
	}
}

// TestDeltaDeliveryEquivalence pins delivery under within-round
// parallelism: receivers union every payload they hear, and doing so on 4
// workers through the degree-aware shard partition matches serial delivery.
func TestDeltaDeliveryEquivalence(t *testing.T) {
	checkCells(t, func(_ scenario, snap *ctvg.Trace) ctvg.Dynamic { return snap }, 4)
}

// TestStabilityCacheEquivalence pins the stability-window cache from both
// sides: the snapshot trace with StableUntil hidden (the uncached path)
// and the live dynamic, whose StableUntil is phase arithmetic rather than
// the trace's precomputed windows.
func TestStabilityCacheEquivalence(t *testing.T) {
	t.Run("recorded-trace", func(t *testing.T) {
		checkCells(t, func(_ scenario, snap *ctvg.Trace) ctvg.Dynamic { return uncached{snap} }, 1, 4)
	})
	t.Run("live-hinet", func(t *testing.T) {
		checkCells(t, func(sc scenario, _ *ctvg.Trace) ctvg.Dynamic { return sc.live() }, 1, 4)
	})
}

// TestDeltaTraceMatchesSnapshots pins delta-trace storage: a
// ctvg.RecordDeltas trace, recorded from a fresh adversary with the same
// seed, runs exactly like the snapshot trace.
func TestDeltaTraceMatchesSnapshots(t *testing.T) {
	checkCells(t, func(sc scenario, _ *ctvg.Trace) ctvg.Dynamic { return ctvg.RecordDeltas(sc.live(), sc.rounds) }, 1, 4)
}
