package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestRecordInfoReplay drives a trace through record (delta v2 and -full
// v1), info and replay: both encodings must read back as the same valid
// trace and replay both protocols to the same metrics.
func TestRecordInfoReplay(t *testing.T) {
	dir := t.TempDir()
	results := map[string][]string{}
	for _, enc := range []struct {
		name    string
		version byte
		extra   []string
	}{
		{"delta", 2, nil},
		{"full", 1, []string{"-full"}},
	} {
		path := filepath.Join(dir, enc.name+".ctvg")
		args := append([]string{"-out", path, "-n", "40", "-theta", "8", "-t", "12", "-rounds", "48"}, enc.extra...)
		mustRun(t, "recorded 48 rounds of a (12, 2)-HiNet on 40 nodes", record, args...)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 5 || string(data[:4]) != "CTVG" || data[4] != enc.version {
			t.Fatalf("%s: header %q, want CTVG version %d", enc.name, data[:min(5, len(data))], enc.version)
		}
		out := mustRun(t, "trace: 40 nodes, 48 rounds", info, "-in", path)
		if !strings.Contains(out, "structural validation: ok") {
			t.Fatalf("%s: info reports an invalid trace:\n%s", enc.name, out)
		}
		for _, proto := range []string{"alg1", "alg2"} {
			out := mustRun(t, "replayed hinet-"+proto, replay, "-in", path, "-proto", proto, "-k", "6")
			// Drop the "replayed <proto> over <path>:" prefix, which names
			// the file; the metrics after it must match across encodings.
			results[proto] = append(results[proto], out[strings.Index(out, ": ")+2:])
		}
	}
	for proto, got := range results {
		if got[0] != got[1] {
			t.Errorf("%s replays differ between encodings:\n delta %s full  %s", proto, got[0], got[1])
		}
	}
}

// TestSubcommandErrors pins inputs that must come back as errors, not
// panics: a postmortem of a file that is not a bundle, a record size the
// HiNet adversary cannot build, and more tokens than a trace has nodes.
func TestSubcommandErrors(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "net.ctvg")
	mustRun(t, "recorded", record, "-out", trace)
	notBundle := filepath.Join(dir, "not.dump")
	if err := os.WriteFile(notBundle, []byte("not a bundle\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		cmd     func([]string) error
		args    []string
		wantErr string
	}{
		{"postmortem not a bundle", postmortem, []string{notBundle}, "recorder"},
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
