package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := strings.Join([]string{
		"goos: linux",
		"BenchmarkHiNet1k-4        50   21000000 ns/op   355721 B/op   7913 allocs/op",
		"BenchmarkHiNet1k-4        50   20000000 ns/op   355800 B/op   7914 allocs/op",
		"BenchmarkHiNet1k-4        50   22000000 ns/op   355721 B/op   7913 allocs/op",
		"BenchmarkHiNet1kTimed-4   39   29623629 ns/op   12580243 collect-ns/op   4.5e+06 deliver-ns/op   363696 B/op   7967 allocs/op",
		"BenchmarkNoMem             3   1500.5 ns/op",
		"PASS",
	}, "\n")
	got, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]metrics{
		// -count samples reduce to the fastest one, with its own columns.
		"BenchmarkHiNet1k": {Ns: 20000000, Bytes: 355800, Allocs: 7914},
		"BenchmarkHiNet1kTimed": {Ns: 29623629, Bytes: 363696, Allocs: 7967,
			Stages: map[string]float64{"collect": 12580243, "deliver": 4.5e6}},
		"BenchmarkNoMem": {Ns: 1500.5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseBench:\n got  %+v\n want %+v", got, want)
	}
}

func TestMergeCeilingsLaterOverrides(t *testing.T) {
	dir := t.TempDir()
	older := filepath.Join(dir, "BENCH_A.json")
	newer := filepath.Join(dir, "BENCH_B.json")
	write := func(path, body string) {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(older, `{"after": {"commit": "abc",
		"BenchmarkX": {"ns_per_op": 100, "allocs_per_op": 10},
		"BenchmarkY": {"ns_per_op": 200}}}`)
	write(newer, `{"after": {"BenchmarkX": {"ns_per_op": 50, "allocs_per_op": 5}}}`)
	ceil, source, err := mergeCeilings([]string{older, newer})
	if err != nil {
		t.Fatal(err)
	}
	wantCeil := map[string]metrics{
		"BenchmarkX": {Ns: 50, Allocs: 5},
		"BenchmarkY": {Ns: 200},
	}
	if !reflect.DeepEqual(ceil, wantCeil) {
		t.Errorf("ceilings %+v, want %+v", ceil, wantCeil)
	}
	if source["BenchmarkX"] != newer || source["BenchmarkY"] != older {
		t.Errorf("sources %v: BenchmarkX should come from %s, BenchmarkY from %s", source, newer, older)
	}
	if _, _, err := mergeCeilings([]string{filepath.Join(dir, "missing.json")}); err == nil {
		t.Error("missing record: want an error")
	}
}

func TestCompare(t *testing.T) {
	const tol, memtol = 0.30, 0.05
	source := map[string]string{"BenchmarkX": "BENCH_X.json", "BenchmarkGone": "BENCH_PR5.json"}
	for _, tc := range []struct {
		name   string
		have   metrics
		stages map[string]float64 // ceiling stages, when set
		pass   bool
		want   string
	}{
		{"within bands", metrics{Ns: 129, Bytes: 1049, Allocs: 104}, nil, true, "ok"},
		{"ns over tol", metrics{Ns: 131, Bytes: 1000, Allocs: 100}, nil, false, "FAIL ns/op +31%"},
		{"bytes over memtol", metrics{Ns: 100, Bytes: 1051, Allocs: 100}, nil, false, "FAIL B/op +5%"},
		{"allocs over memtol", metrics{Ns: 100, Bytes: 1000, Allocs: 106}, nil, false, "FAIL allocs/op +6%"},
		{"stage over tol", metrics{Ns: 100, Stages: map[string]float64{"deliver": 140}},
			map[string]float64{"deliver": 100}, false, "FAIL deliver-ns/op +40%"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ceilings := map[string]metrics{
				"BenchmarkX": {Ns: 100, Bytes: 1000, Allocs: 100, Stages: tc.stages},
				// Recorded but not run (BENCH_PR5.json names benchmarks
				// that no longer exist): reported and skipped.
				"BenchmarkGone": {Ns: 1},
			}
			var w bytes.Buffer
			pass := compare(&w, map[string]metrics{"BenchmarkX": tc.have}, ceilings, source, tol, memtol)
			out := w.String()
			if pass != tc.pass {
				t.Errorf("compare = %v, want %v:\n%s", pass, tc.pass, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
			if !strings.Contains(out, "BenchmarkGone") || !strings.Contains(out, "not run (skipped; record BENCH_PR5.json)") {
				t.Errorf("unrun benchmark not reported as skipped:\n%s", out)
			}
		})
	}
}
