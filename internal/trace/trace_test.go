package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/ctvg"
	"repro/internal/graph"
	"repro/internal/tvg"
	"repro/internal/xrand"
)

func recordedHiNet(t testing.TB, rounds int) *ctvg.DeltaTrace {
	t.Helper()
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: 20, Theta: 4, L: 2, T: 5, Reaffiliations: 2, ChurnEdges: 3,
	}, xrand.New(5))
	return ctvg.RecordDeltas(adv, rounds)
}

// encode writes t and returns the bytes.
func encode(t testing.TB, dt *ctvg.DeltaTrace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, dt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// roundTrip writes dt and reads it back.
func roundTrip(t testing.TB, dt *ctvg.DeltaTrace) *ctvg.DeltaTrace {
	t.Helper()
	got, err := Read(bytes.NewReader(encode(t, dt)))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// checkSame compares got with want in every round on both layers and on
// the window structure.
func checkSame(t testing.TB, got *ctvg.DeltaTrace, want *ctvg.Trace, rounds int) {
	t.Helper()
	if got.N() != want.N() || got.Len() != rounds {
		t.Fatalf("shape n=%d rounds=%d, want n=%d rounds=%d", got.N(), got.Len(), want.N(), rounds)
	}
	for r := 0; r < rounds; r++ {
		if !got.At(r).Equal(want.At(r)) {
			t.Fatalf("round %d: graphs differ", r)
		}
		if !got.HierarchyAt(r).Equal(want.HierarchyAt(r)) {
			t.Fatalf("round %d: hierarchies differ", r)
		}
		if g, w := got.StableUntil(r), want.StableUntil(r); g != w {
			t.Fatalf("round %d: StableUntil %d, want %d", r, g, w)
		}
	}
}

// hierarchyOnly is a HiNet round-0 state held for 6 rounds, whose second
// window unaffiliates one member without touching the graph.
func hierarchyOnly(t testing.TB) *ctvg.Trace {
	t.Helper()
	adv := adversary.NewHiNet(adversary.HiNetConfig{N: 16, Theta: 4, L: 2, T: 8}, xrand.New(2))
	g, h := adv.At(0), adv.HierarchyAt(0)
	h2 := h.Clone()
	for v, role := range h2.Role {
		if role == ctvg.Member {
			h2.Role[v], h2.Cluster[v] = ctvg.Unaffiliated, ctvg.NoCluster
			break
		}
	}
	return ctvg.NewTrace(tvg.NewTrace([]*graph.Graph{g, g, g, g, g, g}),
		[]*ctvg.Hierarchy{h, h, h, h2, h2, h2})
}

// TestRoundTrip records HiNets through the delta path, round-trips them
// through the file format, and compares every round against a snapshot
// recording of the same seed.
func TestRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    adversary.HiNetConfig
		rounds int
	}{
		{"static", adversary.HiNetConfig{N: 20, Theta: 4, L: 2, T: 5}, 20},
		{"reaffiliations", adversary.HiNetConfig{N: 30, Theta: 6, L: 2, T: 4, Reaffiliations: 3}, 30},
		{"head-churn", adversary.HiNetConfig{N: 30, Theta: 6, Heads: 3, L: 3, T: 4, HeadChurn: 1}, 30},
		{"edge-churn", adversary.HiNetConfig{N: 24, Theta: 5, L: 2, T: 5, Reaffiliations: 2, HeadChurn: 1, ChurnEdges: 4}, 25},
	} {
		t.Run(tc.name, func(t *testing.T) {
			written := ctvg.RecordDeltas(adversary.NewHiNet(tc.cfg, xrand.New(7)), tc.rounds)
			got := roundTrip(t, written)
			checkSame(t, got, ctvg.Record(adversary.NewHiNet(tc.cfg, xrand.New(7)), tc.rounds), tc.rounds)
			if got.Windows() != written.Windows() {
				t.Fatalf("windows %d, want %d", got.Windows(), written.Windows())
			}
			ge, gr := got.Changes()
			we, wr := written.Changes()
			if ge != we || gr != wr {
				t.Fatalf("changes (%d edges, %d roles), want (%d, %d)", ge, gr, we, wr)
			}
		})
	}
	t.Run("hierarchy-only", func(t *testing.T) {
		tr := hierarchyOnly(t)
		got := roundTrip(t, ctvg.RecordDeltas(tr, tr.Len()))
		checkSame(t, got, tr, tr.Len())
		if _, gd, hd := got.Window(1); got.Windows() != 2 || !gd.Empty() || len(hd) != 1 {
			t.Fatalf("windows=%d, second window changes %d edges and %d roles; want 2, 0, 1",
				got.Windows(), gd.Len(), len(hd))
		}
	})
}

// TestDeltaRoundTrip round-trips a trace with reaffiliations and edge
// churn, then walks the decoded trace backwards and at random so its
// rewinds are exercised too.
func TestDeltaRoundTrip(t *testing.T) {
	orig := recordedHiNet(t, 20)
	got := roundTrip(t, orig)
	for r := orig.Len() - 1; r >= 0; r-- {
		if !got.At(r).Equal(orig.At(r)) || !got.HierarchyAt(r).Equal(orig.HierarchyAt(r)) {
			t.Fatalf("round %d differs (backward)", r)
		}
	}
	rng := xrand.New(3)
	for i := 0; i < 40; i++ {
		r := rng.Intn(orig.Len())
		if !got.At(r).Equal(orig.At(r)) || !got.HierarchyAt(r).Equal(orig.HierarchyAt(r)) {
			t.Fatalf("round %d differs (random access)", r)
		}
	}
}

// TestDeltaSmallerOnStableTraces pins that a file costs O(changes), not
// O(rounds): a trace whose last window is long and static, recorded for 60
// and for 600 rounds, differs only by the width of the rounds varint.
func TestDeltaSmallerOnStableTraces(t *testing.T) {
	// A HiNet whose structure settles after one boundary: phases of 40
	// rounds, so rounds 40.. form the final window in both recordings.
	record := func(rounds int) []byte {
		adv := adversary.NewHiNet(adversary.HiNetConfig{
			N: 80, Theta: 20, L: 2, T: 40, Reaffiliations: 2,
		}, xrand.New(3))
		frozen := ctvg.Record(adv, 60) // rounds >= 60 repeat round 59
		return encode(t, ctvg.RecordDeltas(frozen, rounds))
	}
	short, long := record(60), record(600)
	if d := len(long) - len(short); d != 1 {
		t.Fatalf("600-round file is %d bytes, 60-round file %d: differ by %d, want 1 (the rounds varint)",
			len(long), len(short), d)
	}
}

func TestDeltaSingleRound(t *testing.T) {
	orig := recordedHiNet(t, 1)
	got := roundTrip(t, orig)
	if got.Len() != 1 || got.Windows() != 1 || !got.At(0).Equal(orig.At(0)) {
		t.Fatal("single-round trace wrong")
	}
}

func TestDeltaRejectsTruncation(t *testing.T) {
	data := encode(t, recordedHiNet(t, 8))
	for _, cut := range []int{0, 4, 5, 8, len(data) / 3, len(data) / 2, len(data) - 1} {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDeltaValidatesStructure(t *testing.T) {
	got := roundTrip(t, recordedHiNet(t, 10))
	if err := got.Validate(); err != nil {
		t.Fatalf("decoded trace structurally invalid: %v", err)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("XXXX\x03"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestReadRejectsBadVersion(t *testing.T) {
	for _, v := range []byte{1, 2, 7} {
		_, err := Read(bytes.NewReader([]byte{'C', 'T', 'V', 'G', v, 5, 1}))
		if err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("version %d: got %v, want an unsupported-version error", v, err)
		}
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	full := encode(t, recordedHiNet(t, 6))
	// Every prefix must error, never panic or succeed.
	for cut := 0; cut < len(full); cut++ {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestReadRejectsCorruptRole(t *testing.T) {
	data := encode(t, recordedHiNet(t, 12))
	// Flip every byte one at a time and require that Read either errors or
	// returns a trace that replays without panicking.
	for i := len(magic) + 1; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		got, err := Read(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		walk(t, got)
	}
}

// TestReadRejectsMalformed pins each check Read makes before handing the
// body to ctvg.NewDeltaTrace, whose constructors and delta appliers panic
// on inconsistent input.
func TestReadRejectsMalformed(t *testing.T) {
	// n=3, rounds=4; base {0,1}; roles: 0 head, 1 member of 0, 2
	// unaffiliated; then the window section under test.
	base := []byte{'C', 'T', 'V', 'G', version, 3, 4,
		1, 0, 1,
		byte(ctvg.Head), byte(ctvg.Member), byte(ctvg.Unaffiliated),
		1, 1, 0}
	mk := func(tail ...byte) []byte { return append(append([]byte(nil), base...), tail...) }
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"valid", "", mk(1, 2, 0, 1, 1, 2, 0)},
		{"self-loop", "not canonical", mk(1, 2, 0, 1, 2, 2, 0)},
		{"reversed edge", "not canonical", mk(1, 2, 0, 1, 2, 1, 0)},
		{"unsorted edges", "unsorted", mk(1, 2, 0, 2, 1, 2, 0, 2, 0)},
		{"duplicate edges", "duplicated", mk(1, 2, 0, 2, 1, 2, 1, 2, 0)},
		{"edge out of range", "out of range", mk(1, 2, 0, 1, 1, 3, 0)},
		{"add present edge", "already present", mk(1, 2, 0, 1, 0, 1, 0)},
		{"remove absent edge", "not present", mk(1, 2, 1, 1, 2, 0, 0)},
		{"remove and re-add", "already present", mk(1, 2, 1, 0, 1, 1, 0, 1, 0)},
		{"start zero", "not after round 0", mk(1, 0, 0, 1, 1, 2, 0)},
		{"start past end", "out of range", mk(1, 4, 0, 1, 1, 2, 0)},
		{"starts not increasing", "not after round 2", mk(2, 2, 0, 1, 1, 2, 0, 2, 1, 1, 2, 0, 0)},
		{"too many windows", "out of range", mk(4)},
		{"empty window", "changes neither layer", mk(1, 2, 0, 0, 0)},
		{"role above unaffiliated", "invalid role", mk(1, 2, 0, 0, 1, 2, byte(ctvg.Unaffiliated)+1, 1)},
		{"cluster out of range", "out of range", mk(1, 2, 0, 0, 1, 2, byte(ctvg.Member), 4)},
		{"no-op role change", "keeps its state", mk(1, 2, 0, 0, 1, 2, byte(ctvg.Unaffiliated), 0)},
		{"unsorted role changes", "unsorted", mk(1, 2, 0, 0, 2, 2, byte(ctvg.Member), 1, 1, byte(ctvg.Unaffiliated), 0)},
		{"base role invalid", "invalid role", append(base[:10:10], 9, 2, 3, 1, 1, 0, 0)},
		{"base cluster out of range", "out of range", append(base[:13:13], 1, 1, 4, 0)},
		{"trailing data", "trailing data", mk(0, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Read(bytes.NewReader(tc.data))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid input rejected: %v", err)
				}
				walk(t, got)
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

func TestEmptyTraceRejected(t *testing.T) {
	data := []byte{'C', 'T', 'V', 'G', version, 5, 0} // n=5, rounds=0
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("zero-round trace accepted")
	}
}

// walk visits every round of tr forward and then back to round 0 on both
// layers, checks each window against the model, and re-encodes tr: the
// re-read trace must hold the same state in every round.
func walk(t testing.TB, tr *ctvg.DeltaTrace) {
	t.Helper()
	for r := 0; r < tr.Len(); r++ {
		tr.At(r)
		tr.HierarchyAt(r)
		if s := tr.StableUntil(r); s < r {
			t.Fatalf("round %d: StableUntil %d before the round", r, s)
		}
	}
	for r := tr.Len() - 1; r >= 0; r-- {
		tr.At(r)
		tr.HierarchyAt(r)
		tr.StableUntil(r)
	}
	_ = tr.Validate() // may report a model violation; must not panic
	again := roundTrip(t, tr)
	if again.N() != tr.N() || again.Len() != tr.Len() || again.Windows() != tr.Windows() {
		t.Fatalf("re-read trace has n=%d rounds=%d windows=%d, want %d, %d, %d",
			again.N(), again.Len(), again.Windows(), tr.N(), tr.Len(), tr.Windows())
	}
	for r := 0; r < tr.Len(); r++ {
		if !again.At(r).Equal(tr.At(r)) || !again.HierarchyAt(r).Equal(tr.HierarchyAt(r)) ||
			again.StableUntil(r) != tr.StableUntil(r) {
			t.Fatalf("round %d: re-read trace differs", r)
		}
	}
}

func BenchmarkWrite(b *testing.B) {
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: 100, Theta: 30, L: 2, T: 10, Reaffiliations: 3, ChurnEdges: 10,
	}, xrand.New(1))
	tr := ctvg.RecordDeltas(adv, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead(b *testing.B) {
	adv := adversary.NewHiNet(adversary.HiNetConfig{
		N: 100, Theta: 30, L: 2, T: 10, Reaffiliations: 3, ChurnEdges: 10,
	}, xrand.New(1))
	data := encode(b, ctvg.RecordDeltas(adv, 50))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
