package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// smokeN is small enough for every workload to finish an iteration in
// well under a second, and large enough for a valid 50-head HiNet.
const smokeN = 400

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

// TestSmoke runs every workload at a tiny size in both modes: each
// iteration must pass its oracle, and the result must carry exactly the
// metrics BENCHMARK.json lists for the mode, with the same units.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bf.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			res, err := run(config{
				workload: w.name, seed: 3, seconds: 0.05, trace: traced,
				n: smokeN, dir: dir,
			}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d",
					w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, m := range res.Metrics {
				u, ok := want[traced][name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.name, traced, name)
				case u != m.Unit:
					t.Errorf("%s trace=%v: %s in %s, BENCHMARK.json says %s", w.name, traced, name, m.Unit, u)
				}
			}
			for name := range want[traced] {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, name)
				}
			}
			if traced {
				checkLayers(t, w, res.Metrics)
				checkSpans(t, filepath.Join(dir, w.name+"-spans.jsonl"))
			}
		}
	}
}

// checkLayers checks what the traced metrics promise: the five step spans
// cover the traced wall time but for a small unattributed remainder, and
// a step a workload skips reports exactly zero.
func checkLayers(t *testing.T, w workload, m map[string]metric) {
	t.Helper()
	wall, rest := m["trace.wall_s"].Value, m["trace.unattributed_s"].Value
	sum := rest
	for _, st := range steps {
		sum += m[st.metric].Value
	}
	if wall <= 0 || math.Abs(sum-wall) > 1e-9*wall {
		t.Errorf("%s: steps + unattributed = %v, traced wall %v", w.name, sum, wall)
	}
	if rest < 0 || rest > 0.05*wall {
		t.Errorf("%s: %v s of the traced wall %v s is outside every step span", w.name, rest, wall)
	}
	for _, c := range []struct {
		metric string
		runs   bool
	}{
		{"hinet.check_s", w.check},
		{"ctvg.record_s", w.record},
		{"ctvg.trace_live_mb", w.record},
		{"obs.flush_s", w.observed},
		{"obs.overhead_ratio", w.observed},
		{"sim.tokens_injected", w.arrivals},
	} {
		if got := m[c.metric].Value; (got > 0) != c.runs {
			t.Errorf("%s: %s = %v, step runs: %v", w.name, c.metric, got, c.runs)
		}
	}
}

// checkSpans reads back the written spans: every iteration root has its
// build and run steps, and every child lies inside its parent.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var s span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	roots := 0
	for i, s := range spans {
		if s.Parent < 0 {
			roots++
			tr := &tracer{spans: spans}
			if tr.child(i, "build").End == 0 || tr.child(i, "run").End == 0 {
				t.Errorf("%s: iteration span %d lacks its build or run step", path, i)
			}
			continue
		}
		if p := spans[s.Parent]; s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %q [%d, %d] outside its parent %q [%d, %d]", path, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	if roots == 0 {
		t.Errorf("%s: no iteration spans", path)
	}
}

// TestUnit pins the unit of names the suffix rules could confuse.
func TestUnit(t *testing.T) {
	for name, want := range map[string]string{
		"wall_s":                              "s",
		"hinet.validate_ns_per_round":         "ns",
		"hinet.linkage_ns_per_window":         "ns",
		"adversary.ns_per_window":             "ns",
		"sim.stage.collect.ns_per_node_round": "ns",
		"core.tokens_per_node":                "count",
		"core.messages_per_node":              "count",
		"wire.bytes_per_token":                "B",
		"obs.metrics_bytes":                   "B",
		"hinet.alloc_mb":                      "MB",
		"go.gc_cpu_fraction":                  "ratio",
		"allocs":                              "count",
	} {
		if got := unit(name); got != want {
			t.Errorf("unit(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestUnknownWorkload is an error, not a result.
func TestUnknownWorkload(t *testing.T) {
	if _, err := run(config{workload: "nope", seconds: 1, dir: t.TempDir()}, io.Discard); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestOracleRejects feeds the oracle outputs it must refuse.
func TestOracleRejects(t *testing.T) {
	for _, w := range workloads {
		p := newPlan(w, smokeN, 3, t.TempDir())
		o, err := p.iterate(nil)
		if err == nil {
			err = o.readSinks()
		}
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := p.verify(o, false); err != nil {
			t.Fatalf("%s: a correct run rejected: %v", w.name, err)
		}
		// At 400 nodes the digest cannot match the pinned default-size one.
		if p.verify(o, true) == nil {
			t.Errorf("%s: digest of a %d-node run matched the pinned one", w.name, smokeN)
		}
		o.met.Complete = false
		if p.verify(o, false) == nil {
			t.Errorf("%s: incomplete run accepted", w.name)
		}
		o.met.Complete = true
		if !w.arrivals {
			o.nodes[len(o.nodes)-1].Tokens().Remove(0)
			if p.verify(o, false) == nil {
				t.Errorf("%s: a node missing a token accepted", w.name)
			}
		}
	}
}
