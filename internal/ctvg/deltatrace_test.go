package ctvg

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/tvg"
	"repro/internal/xrand"
)

// buildClusteredTrace assembles a small clustered trace whose windows
// change a few member edges and roles each, exercising both delta layers.
func buildClusteredTrace(t *testing.T, windows, winLen int, seed uint64) *Trace {
	t.Helper()
	const n = 20
	rng := xrand.New(seed)
	g := graph.New(n)
	h := NewHierarchy(n)
	h.SetHead(0)
	h.SetHead(1)
	for v := 2; v < n; v++ {
		head := rng.Intn(2)
		h.SetMember(v, head)
		g.AddEdge(v, head)
	}
	g.AddEdge(0, 1)

	var snaps []*graph.Graph
	var hier []*Hierarchy
	for w := 0; w < windows; w++ {
		if w > 0 {
			g = g.Clone()
			h = h.Clone()
			for i := 0; i < 2; i++ {
				v := 2 + rng.Intn(n-2)
				old := h.HeadOf(v)
				nh := 1 - old
				g.RemoveEdge(v, old)
				g.AddEdge(v, nh)
				h.SetMember(v, nh)
			}
		}
		for r := 0; r < winLen; r++ {
			snaps = append(snaps, g)
			hier = append(hier, h)
		}
	}
	return NewTrace(tvg.NewTrace(snaps), hier)
}

func TestCTVGDeltaTraceMatchesTrace(t *testing.T) {
	tr := buildClusteredTrace(t, 6, 4, 1)
	dt := RecordDeltas(tr, tr.Len())

	for r := 0; r < tr.Len()+5; r++ {
		if !dt.At(r).Equal(tr.At(r)) {
			t.Fatalf("round %d: snapshot mismatch", r)
		}
		if !dt.HierarchyAt(r).Equal(tr.HierarchyAt(r)) {
			t.Fatalf("round %d: hierarchy mismatch", r)
		}
		if got, want := dt.StableUntil(r), tr.StableUntil(r); got != want {
			t.Fatalf("round %d: StableUntil %d, want %d", r, got, want)
		}
	}
	for r := tr.Len() - 1; r >= 0; r-- {
		if !dt.At(r).Equal(tr.At(r)) || !dt.HierarchyAt(r).Equal(tr.HierarchyAt(r)) {
			t.Fatalf("round %d: backward mismatch", r)
		}
	}
	rng := xrand.New(5)
	for i := 0; i < 40; i++ {
		r := rng.Intn(tr.Len())
		if !dt.At(r).Equal(tr.At(r)) || !dt.HierarchyAt(r).Equal(tr.HierarchyAt(r)) {
			t.Fatalf("round %d: random-access mismatch", r)
		}
	}
	if err := dt.Validate(); err != nil {
		t.Fatalf("delta trace fails model validation: %v", err)
	}
}

func TestCTVGDeltaTracePointerStability(t *testing.T) {
	tr := buildClusteredTrace(t, 4, 5, 2)
	dt := RecordDeltas(tr, tr.Len())
	for r := 0; r < tr.Len(); r++ {
		if dt.At(r) != dt.At(r) || dt.HierarchyAt(r) != dt.HierarchyAt(r) {
			t.Fatalf("round %d: repeated access returned distinct pointers", r)
		}
	}
	// Record over the delta trace must dedup windows via those pointers and
	// reproduce the original window structure.
	rec := Record(dt, tr.Len())
	for r := 0; r < tr.Len(); r++ {
		if got, want := rec.StableUntil(r), tr.StableUntil(r); got != want {
			t.Fatalf("round %d: re-recorded StableUntil %d, want %d", r, got, want)
		}
	}
}

func TestHierarchyDeltaRoundTrip(t *testing.T) {
	a := NewHierarchy(6)
	a.SetHead(0)
	a.SetMember(1, 0)
	a.SetGateway(2, 0)
	b := a.Clone()
	b.SetHead(3)
	b.SetMember(1, 3)
	b.SetMember(2, 3)

	d := HierarchyDeltaBetween(a, b)
	if len(d) != 3 {
		t.Fatalf("delta has %d changes, want 3", len(d))
	}
	fwd := a.ApplyDelta(d)
	if !fwd.Equal(b) {
		t.Fatal("ApplyDelta did not reach b")
	}
	back := fwd.UnapplyDelta(d)
	if !back.Equal(a) {
		t.Fatal("UnapplyDelta did not rewind to a")
	}
	if HierarchyDeltaBetween(a, a) != nil {
		t.Fatal("self-delta not empty")
	}
}

func TestHierarchyDeltaStrict(t *testing.T) {
	a := NewHierarchy(3)
	a.SetHead(0)
	d := HierarchyDelta{{V: 1, OldRole: Member, NewRole: Head, OldCluster: 0, NewCluster: 1}}
	defer func() {
		if recover() == nil {
			t.Fatal("ApplyDelta on mismatched state did not panic")
		}
	}()
	a.ApplyDelta(d) // node 1 is Unaffiliated, not Member
}

func TestCTVGDeltaTraceHierarchyOnlyWindow(t *testing.T) {
	// A transition that changes only the hierarchy (same graph) must still
	// open a window, mirroring Trace's min-of-both-layers StableUntil.
	g := graph.FromEdgeList(4, []graph.Edge{{U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 3}})
	h1 := NewHierarchy(4)
	h1.SetHead(0)
	h1.SetMember(2, 0)
	h1.SetMember(3, 0)
	h1.SetHead(1)
	h2 := h1.Clone()
	h2.SetMember(3, 1)
	tr := NewTrace(tvg.NewTrace([]*graph.Graph{g, g, g, g}), []*Hierarchy{h1, h1, h2, h2})
	dt := RecordDeltas(tr, 4)
	if dt.Windows() != 2 {
		t.Fatalf("windows = %d, want 2", dt.Windows())
	}
	if got := dt.StableUntil(0); got != 1 {
		t.Fatalf("StableUntil(0) = %d, want 1", got)
	}
	if got := dt.StableUntil(2); got != math.MaxInt {
		t.Fatalf("StableUntil(2) = %d, want MaxInt", got)
	}
	if dt.At(0) != dt.At(2) {
		// Graph layer is untouched; the snapshot may legitimately share
		// the same pointer across the hierarchy-only transition.
		t.Log("graph pointer changed across hierarchy-only window (allowed)")
	}
	if !dt.HierarchyAt(2).Equal(h2) || !dt.HierarchyAt(0).Equal(h1) {
		t.Fatal("hierarchy windows wrong")
	}
}

func TestDeltaTraceStorage(t *testing.T) {
	// 50 windows with 2 re-affiliations between each: the delta trace must
	// store a few changes per transition, not 50 snapshots. A window whose
	// two re-affiliations cancel out merges into its predecessor, so the
	// expected count comes from the snapshot trace's own windows.
	tr := buildClusteredTrace(t, 50, 3, 3)
	want := 0
	for r := 0; r < tr.Len(); r = tr.StableUntil(r) + 1 {
		want++
		if tr.StableUntil(r) == math.MaxInt {
			break
		}
	}
	dt := RecordDeltas(tr, tr.Len())
	if w := dt.Windows(); w != want || w < 40 {
		t.Fatalf("windows = %d, want %d (>= 40)", w, want)
	}
	// A re-affiliation swaps one member edge and changes one node's cluster.
	edges, roles := dt.Changes()
	if max := (want - 1) * 2 * 2; edges > max {
		t.Fatalf("stored %d edge changes, want <= %d", edges, max)
	}
	if max := (want - 1) * 2; roles > max {
		t.Fatalf("stored %d role changes, want <= %d", roles, max)
	}
}

func TestDeltaTraceMergesUnchangedWindows(t *testing.T) {
	g := graph.FromEdgeList(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	h := NewHierarchy(4)
	h.SetHead(1)
	h.SetMember(0, 1)
	h.SetMember(2, 1)
	g2 := g.Clone()
	g2.AddEdge(0, 3)
	// Content-equal but pointer-distinct rounds must merge into one window,
	// exactly as NewTrace's Equal-based index does.
	tr := NewTrace(tvg.NewTrace([]*graph.Graph{g, g.Clone(), g.Clone(), g2, g2.Clone()}),
		[]*Hierarchy{h, h.Clone(), h.Clone(), h.Clone(), h.Clone()})
	dt := RecordDeltas(tr, tr.Len())
	if w := dt.Windows(); w != 2 {
		t.Fatalf("windows = %d, want 2", w)
	}
	if got := dt.StableUntil(0); got != 2 {
		t.Fatalf("StableUntil(0) = %d, want 2", got)
	}
	if got := dt.StableUntil(3); got != math.MaxInt {
		t.Fatalf("StableUntil(3) = %d, want MaxInt", got)
	}
}

func TestDeltaTraceSingleWindow(t *testing.T) {
	g := graph.FromEdgeList(3, []graph.Edge{{U: 0, V: 1}})
	h := NewHierarchy(3)
	h.SetHead(0)
	h.SetMember(1, 0)
	dt := RecordDeltas(NewTrace(tvg.NewTrace([]*graph.Graph{g}), []*Hierarchy{h}), 7)
	if dt.Windows() != 1 || dt.StableUntil(0) != math.MaxInt {
		t.Fatalf("static dynamic: windows=%d stable=%d", dt.Windows(), dt.StableUntil(0))
	}
	if !dt.At(100).Equal(g) || !dt.HierarchyAt(100).Equal(h) {
		t.Fatal("past-end round differs from the single window")
	}
}
