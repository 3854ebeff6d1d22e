// Command benchdiff compares `go test -bench` output against the committed
// BENCH_*.json performance records, so a perf regression fails `make
// benchstat` instead of slipping past review.
//
//	go test -run '^$' -bench 'BenchmarkHiNet' -benchmem . | \
//	    go run ./cmd/benchdiff BENCH_PR2.json BENCH_PR4.json BENCH_PR5.json
//
// Every record's "after" section is treated as a ceiling: for each benchmark
// that appears both there and in the measured output, ns/op may exceed the
// recorded value by at most -tol (fractional; timing is noisy on shared
// machines), while bytes/op and allocs/op — which are deterministic for
// these seeded workloads — get a tighter -memtol. Records are merged in
// argument order with later files overriding earlier ones per benchmark, so
// a PR that re-records a benchmark supersedes the stale ceiling — pass the
// files oldest first. Benchmarks recorded but not run are reported and
// skipped (a shrunk -bench filter is not a regression). Multiple -count
// samples of one benchmark are reduced to their minimum before comparison.
//
// Records may carry a "stages" map of per-engine-stage ns/op ceilings (the
// timed benchmarks emit them as `<stage>-ns/op` custom metrics). Each stage
// is checked against -tol like ns/op; the verdict line also names the worst
// stage regression and the best stage improvement, so a PR that shifts time
// between stages shows where. Records without "stages" (BENCH_PR2–PR5) and
// runs without timed benchmarks are both fine: absent data is skipped.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type metrics struct {
	Ns     float64            `json:"ns_per_op"`
	Bytes  float64            `json:"bytes_per_op"`
	Allocs float64            `json:"allocs_per_op"`
	Stages map[string]float64 `json:"stages,omitempty"`
}

// benchLine matches one benchmark result line up through ns/op; custom
// metrics (stage spans) and -benchmem columns follow in the tail, e.g.
// "BenchmarkHiNet1kTimed-4  39  29623629 ns/op  12580243 collect-ns/op  ...  363696 B/op  7967 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$`)

// metricPair matches one "value unit" column of the tail.
var metricPair = regexp.MustCompile(`([\d.]+(?:[eE][+-]?\d+)?) (\S+)`)

func parseBench(r io.Reader) (map[string]metrics, error) {
	out := make(map[string]metrics)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		var got metrics
		got.Ns, _ = strconv.ParseFloat(m[2], 64)
		for _, pair := range metricPair.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(pair[1], 64)
			if err != nil {
				continue
			}
			switch unit := pair[2]; {
			case unit == "B/op":
				got.Bytes = v
			case unit == "allocs/op":
				got.Allocs = v
			case strings.HasSuffix(unit, "-ns/op"):
				if got.Stages == nil {
					got.Stages = make(map[string]float64)
				}
				got.Stages[strings.TrimSuffix(unit, "-ns/op")] = v
			}
		}
		// -count > 1 repeats each benchmark; keep the best sample, the
		// standard way to strip scheduling noise from a ceiling check.
		if prev, ok := out[m[1]]; !ok || got.Ns < prev.Ns {
			out[m[1]] = got
		}
	}
	return out, sc.Err()
}

// record is the subset of a BENCH_*.json file benchdiff consumes: the
// "after" section maps benchmark names to metrics (other keys, like
// "commit", simply fail the per-entry unmarshal and are skipped).
type record struct {
	After map[string]json.RawMessage `json:"after"`
}

func loadCeilings(path string) (map[string]metrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]metrics)
	for name, raw := range rec.After {
		var m metrics
		if err := json.Unmarshal(raw, &m); err != nil || m.Ns == 0 {
			continue
		}
		out[name] = m
	}
	return out, nil
}

func main() {
	tol := flag.Float64("tol", 0.30, "allowed fractional ns/op regression vs the recorded ceiling")
	memtol := flag.Float64("memtol", 0.05, "allowed fractional bytes/op and allocs/op regression")
	input := flag.String("input", "-", "bench output to check ('-' = stdin)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tol f] [-memtol f] [-input file] BENCH_*.json...")
		os.Exit(2)
	}

	in := io.Reader(os.Stdin)
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	got, err := parseBench(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark lines in input")
		os.Exit(2)
	}

	ceilings, source, err := mergeCeilings(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if !compare(os.Stdout, got, ceilings, source, *tol, *memtol) {
		fmt.Println("benchdiff: FAIL")
		os.Exit(1)
	}
	fmt.Println("benchdiff: PASS")
}

// mergeCeilings loads the records in argument order, later files
// overriding earlier ones per benchmark; source names the file each
// ceiling came from.
func mergeCeilings(paths []string) (ceilings map[string]metrics, source map[string]string, err error) {
	ceilings = make(map[string]metrics)
	source = make(map[string]string)
	for _, path := range paths {
		ceil, err := loadCeilings(path)
		if err != nil {
			return nil, nil, err
		}
		for name, m := range ceil {
			ceilings[name] = m
			source[name] = path
		}
	}
	return ceilings, source, nil
}

// compare writes one verdict line per recorded benchmark to w and reports
// whether every benchmark that ran stayed under its ceilings.
func compare(w io.Writer, got, ceilings map[string]metrics, source map[string]string, tol, memtol float64) bool {
	names := make([]string, 0, len(ceilings))
	for name := range ceilings {
		names = append(names, name)
	}
	sort.Strings(names)
	ok := true
	for _, name := range names {
		want := ceilings[name]
		have, ran := got[name]
		if !ran {
			fmt.Fprintf(w, "%-38s not run (skipped; record %s)\n", name, source[name])
			continue
		}
		verdict := "ok"
		switch {
		case have.Ns > want.Ns*(1+tol):
			verdict = fmt.Sprintf("FAIL ns/op +%.0f%% over ceiling", 100*(have.Ns/want.Ns-1))
		case want.Bytes > 0 && have.Bytes > want.Bytes*(1+memtol):
			verdict = fmt.Sprintf("FAIL B/op +%.0f%% over ceiling", 100*(have.Bytes/want.Bytes-1))
		case want.Allocs > 0 && have.Allocs > want.Allocs*(1+memtol):
			verdict = fmt.Sprintf("FAIL allocs/op +%.0f%% over ceiling", 100*(have.Allocs/want.Allocs-1))
		}
		stageNote, stageFail := diffStages(want.Stages, have.Stages, tol)
		if verdict == "ok" && stageFail != "" {
			verdict = stageFail
		}
		if verdict != "ok" {
			ok = false
		}
		fmt.Fprintf(w, "%-38s %12.0f ns/op (x%.2f of %s)  %s\n",
			name, have.Ns, have.Ns/want.Ns, source[name], verdict)
		if stageNote != "" {
			fmt.Fprintf(w, "%-38s %s\n", "", stageNote)
		}
	}
	return ok
}

// diffStages compares per-stage ns/op against the recorded stage ceilings.
// It returns a note naming the worst-regressing and best-improving stages
// (empty when either side has no stage data — pre-PR6 records and untimed
// runs are not an error), and a FAIL verdict when any stage breaches tol.
func diffStages(want, have map[string]float64, tol float64) (note, fail string) {
	if len(want) == 0 || len(have) == 0 {
		return "", ""
	}
	type delta struct {
		stage string
		ratio float64
	}
	var ds []delta
	for stage, w := range want {
		h, ok := have[stage]
		if !ok || w <= 0 {
			continue
		}
		ds = append(ds, delta{stage, h / w})
	}
	if len(ds) == 0 {
		return "", ""
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].ratio != ds[j].ratio {
			return ds[i].ratio > ds[j].ratio
		}
		return ds[i].stage < ds[j].stage
	})
	worst, best := ds[0], ds[len(ds)-1]
	note = fmt.Sprintf("stages: worst %s x%.2f, best %s x%.2f (%d compared)",
		worst.stage, worst.ratio, best.stage, best.ratio, len(ds))
	if worst.ratio > 1+tol {
		fail = fmt.Sprintf("FAIL %s-ns/op +%.0f%% over ceiling", worst.stage, 100*(worst.ratio-1))
	}
	return note, fail
}
