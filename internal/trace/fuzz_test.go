package trace

import (
	"bytes"
	"testing"

	"repro/internal/adversary"
	"repro/internal/ctvg"
	"repro/internal/xrand"
)

// FuzzRead drives the trace decoder with arbitrary bytes: it must never
// panic, and any trace it does accept must replay in both directions and
// re-encode to a trace with the same state in every round (see walk).
func FuzzRead(f *testing.F) {
	// Seed corpus: encoded traces covering every kind of window — member
	// re-affiliations, head churn (which reshapes the backbone), per-round
	// edge churn, a hierarchy-only window — plus truncated prefixes of one
	// of them and adversarial headers.
	hinet := func(cfg adversary.HiNetConfig, seed uint64, rounds int) []byte {
		return encode(f, ctvg.RecordDeltas(adversary.NewHiNet(cfg, xrand.New(seed)), rounds))
	}
	reaffil := hinet(adversary.HiNetConfig{N: 12, Theta: 4, L: 2, T: 4, Reaffiliations: 2}, 7, 12)
	for _, seed := range [][]byte{
		reaffil,
		hinet(adversary.HiNetConfig{N: 10, Theta: 4, Heads: 2, L: 2, T: 3, HeadChurn: 1}, 3, 9),
		hinet(adversary.HiNetConfig{N: 8, Theta: 3, L: 2, T: 3, ChurnEdges: 1}, 1, 4),
		hinet(adversary.HiNetConfig{N: 12, Theta: 4, L: 2, T: 4, Reaffiliations: 2, HeadChurn: 1, ChurnEdges: 3}, 7, 12),
		func() []byte { tr := hierarchyOnly(f); return encode(f, ctvg.RecordDeltas(tr, tr.Len())) }(),
		reaffil[:5],
		reaffil[:len(reaffil)/2],
		reaffil[:len(reaffil)-1],
		[]byte("CTVG\x02"),
		[]byte("CTVG\x03\x05\x01"),
		{},
		[]byte("XXXXXXXX"),
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if tr.N() < 0 || tr.Len() < 1 || tr.Windows() < 1 {
			t.Fatalf("accepted insane trace: n=%d rounds=%d windows=%d", tr.N(), tr.Len(), tr.Windows())
		}
		walk(t, tr)
	})
}
