package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/ctvg"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/sim"
	"repro/internal/token"
	"repro/internal/xrand"
)

// runCmd runs one subcommand with stdout captured, returning its output and
// error.
func runCmd(t *testing.T, cmd func([]string) error, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = cmd(args)
	os.Stdout = stdout
	if _, serr := f.Seek(0, io.SeekStart); serr != nil {
		t.Fatal(serr)
	}
	out, rerr := io.ReadAll(f)
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(out), err
}

// mustRun is runCmd for subcommands that must succeed and print want.
func mustRun(t *testing.T, want string, cmd func([]string) error, args ...string) string {
	t.Helper()
	out, err := runCmd(t, cmd, args...)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	if !strings.Contains(out, want) {
		t.Fatalf("%v: output lacks %q:\n%s", args, want, out)
	}
	return out
}

// TestRecordInfoReplay drives a trace through record, info and replay: the
// file must carry the current format version, read back as a valid trace,
// and replay both protocols to the metrics a snapshot recording of the same
// adversary gives.
func TestRecordInfoReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "net.ctvg")
	mustRun(t, "recorded 48 rounds of a (12, 2)-HiNet on 40 nodes", record,
		"-out", path, "-n", "40", "-theta", "8", "-t", "12", "-rounds", "48")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 5 || string(data[:4]) != "CTVG" || data[4] != 3 {
		t.Fatalf("header %q, want CTVG version 3", data[:min(5, len(data))])
	}
	out := mustRun(t, "trace: 40 nodes, 48 rounds", info, "-in", path)
	if !strings.Contains(out, "structural validation: ok") {
		t.Fatalf("info reports an invalid trace:\n%s", out)
	}
	// record's defaults: -reaffil 3 -churn 5 -seed 1; replay's: -t 12 -seed 1.
	cfg := adversary.HiNetConfig{N: 40, Theta: 8, L: 2, T: 12, Reaffiliations: 3, ChurnEdges: 5}
	snap := ctvg.Record(adversary.NewHiNet(cfg, xrand.New(1)), 48)
	for proto, p := range map[string]sim.Protocol{"alg1": core.Alg1{T: 12}, "alg2": core.Alg2{}} {
		out := mustRun(t, "replayed "+p.Name(), replay, "-in", path, "-proto", proto, "-k", "6")
		want := sim.MustRunProtocol(snap, p, token.Spread(40, 6, xrand.New(1)),
			sim.Options{MaxRounds: 48, StopWhenComplete: true})
		// Drop the "replayed <proto> over <path>:" prefix, which names the
		// file.
		if got := strings.TrimSpace(out[strings.Index(out, ": ")+2:]); got != fmt.Sprint(want) {
			t.Errorf("%s replay of the file: %s; of the snapshot recording: %v", proto, got, want)
		}
	}
}

// TestTraceAnalyses runs the analysis subcommands on a recorded trace:
// probe, stats with a provenance log, the three provenance queries on that
// log, and timing on a stage-span stream from a run over the same trace.
func TestTraceAnalyses(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.ctvg")
	mustRun(t, "recorded", record, "-out", path, "-n", "40", "-theta", "8", "-t", "12", "-rounds", "48")
	mustRun(t, "backbone fragility:", probe, "-in", path)

	prov := filepath.Join(dir, "p.jsonl")
	mustRun(t, "deliveries:", stats, "-in", path, "-k", "6", "-provenance", prov)
	f, err := os.Open(prov)
	if err != nil {
		t.Fatal(err)
	}
	plog, err := provenance.ParseLog(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Query the lineage of the first token a node learned from another.
	var first *provenance.Edge
	for i := range plog.Edges {
		if plog.Edges[i].Teacher != provenance.NoTeacher {
			first = &plog.Edges[i]
			break
		}
	}
	if first == nil {
		t.Fatal("provenance log holds no taught delivery")
	}
	node, tok := fmt.Sprint(first.Learner), fmt.Sprint(first.Token)
	mustRun(t, "lineage of token "+tok+" to node "+node, lineage, "-log", prov, "-node", node, "-token", tok)
	mustRun(t, "critical paths ("+prov+")", criticalPath, "-log", prov)
	mustRun(t, "redundant-message hotspots ("+prov+")", redundancy, "-log", prov)

	tpath := filepath.Join(dir, "run.timing.jsonl")
	tf, err := os.Create(tpath)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	tm := obs.NewTiming(obs.TimingConfig{Sink: tf})
	sim.MustRunProtocol(tr, core.Alg1{T: 12}, token.Spread(tr.N(), 6, xrand.New(1)),
		sim.Options{MaxRounds: tr.Len(), StopWhenComplete: true, Timing: tm})
	if err := tm.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	mustRun(t, "per-stage timing ("+tpath+", ", timing, "-in", tpath)
}

// TestSubcommandErrors pins inputs that must come back as errors, not
// panics: a postmortem of a file that is not a bundle, a trace file in a
// format version that is no longer read, a record size the
// HiNet adversary cannot build, and more tokens than a trace has nodes.
func TestSubcommandErrors(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "net.ctvg")
	mustRun(t, "recorded", record, "-out", trace)
	notBundle := filepath.Join(dir, "not.dump")
	if err := os.WriteFile(notBundle, []byte("not a bundle\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	oldTrace := filepath.Join(dir, "v2.ctvg")
	if err := os.WriteFile(oldTrace, []byte("CTVG\x02\x05\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		cmd     func([]string) error
		args    []string
		wantErr string
	}{
		{"postmortem not a bundle", postmortem, []string{notBundle}, "recorder"},
		{"info on an old format version", info, []string{"-in", oldTrace}, "unsupported version 2"},
		{"record default theta exceeds n", record, []string{"-out", filepath.Join(dir, "small.ctvg"), "-n", "5"}, "Theta=10"},
		{"record zero phase length", record, []string{"-out", filepath.Join(dir, "t0.ctvg"), "-t", "0"}, "T=0"},
		{"replay k exceeds n", replay, []string{"-in", trace, "-k", "80"}, "-k 80 exceeds the trace's 50 nodes"},
		{"stats k exceeds n", stats, []string{"-in", trace, "-k", "80"}, "-k 80"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runCmd(t, tc.cmd, tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got error %v, want one mentioning %q", err, tc.wantErr)
			}
		})
	}
	for _, rejected := range []string{"small.ctvg", "t0.ctvg"} {
		if _, err := os.Stat(filepath.Join(dir, rejected)); !os.IsNotExist(err) {
			t.Errorf("rejected record left %s behind (stat: %v)", rejected, err)
		}
	}
}
