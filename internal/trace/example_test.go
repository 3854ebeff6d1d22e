package trace_test

import (
	"bytes"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/ctvg"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Example records a dynamic network as window deltas, round-trips it
// through the trace format, and replays it bit-identically.
func Example() {
	cfg := adversary.HiNetConfig{N: 20, Theta: 4, L: 2, T: 5, ChurnEdges: 2}
	original := ctvg.Record(adversary.NewHiNet(cfg, xrand.New(9)), 15)

	var buf bytes.Buffer
	if err := trace.Write(&buf, ctvg.RecordDeltas(adversary.NewHiNet(cfg, xrand.New(9)), 15)); err != nil {
		panic(err)
	}
	replayed, err := trace.Read(&buf)
	if err != nil {
		panic(err)
	}

	identical := true
	for r := 0; r < original.Len(); r++ {
		if !replayed.At(r).Equal(original.At(r)) ||
			!replayed.HierarchyAt(r).Equal(original.HierarchyAt(r)) {
			identical = false
		}
	}
	fmt.Println("rounds:", replayed.Len(), "bit-identical:", identical)
	// Output: rounds: 15 bit-identical: true
}
