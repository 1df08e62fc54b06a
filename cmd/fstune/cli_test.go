package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tuner"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func heatPath(t *testing.T) string {
	t.Helper()
	p := filepath.Join("..", "..", "examples", "tune", "heat.c")
	if _, err := os.Stat(p); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                             // no input
		{"-kernel", "heat", "extra.c"}, // kernel and file
		{"-format", "sarif", "x.c"},    // bad format
		{"-machine", "cray1", "x.c"},   // bad machine
		{"a.c", "b.c"},                 // multiple files
		{"-nest", "7", heatPath(t)},    // nest out of range -> InputError
		{"-badflag"},                   // unknown flag
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("fstune %v: exit %d, want 2", args, code)
		}
	}
}

func TestMissingFile(t *testing.T) {
	code, _, stderr := runCLI(t, filepath.Join(t.TempDir(), "nope.c"))
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
	}
}

func TestTextReport(t *testing.T) {
	code, stdout, stderr := runCLI(t, heatPath(t))
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr)
	}
	for _, want := range []string{"plan: schedule(static,32)", "baseline: FS", "tuned: FS 0", "--- transformed source ---", "#pragma omp parallel for"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("text report missing %q:\n%s", want, stdout)
		}
	}
}

func TestJSONReport(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-format", "json", heatPath(t))
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr)
	}
	var res tuner.Result
	if err := json.Unmarshal([]byte(stdout), &res); err != nil {
		t.Fatalf("output is not a JSON tuning report: %v", err)
	}
	if res.PlanSummary != "schedule(static,32)" || !res.Chosen.Verified {
		t.Errorf("unexpected report: plan %q verified %v", res.PlanSummary, res.Chosen.Verified)
	}
	if !strings.Contains(res.Source, "schedule(static,32)") {
		t.Error("report source does not carry the rewritten schedule clause")
	}
}

// TestOutputFile: -o writes the transformed source, and the written file
// is itself tunable to a verified no-op fixpoint... at minimum it must
// re-tune without error.
func TestOutputFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "tuned.c")
	code, stdout, stderr := runCLI(t, "-o", out, heatPath(t))
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr)
	}
	if strings.Contains(stdout, "--- transformed source ---") {
		t.Error("-o should suppress inline source dump")
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "schedule(static,32)") {
		t.Errorf("written source lacks the plan's schedule clause:\n%s", data)
	}
	// The tuned output re-tunes cleanly.
	if code, _, stderr := runCLI(t, out); code != 0 {
		t.Fatalf("re-tuning emitted source: exit %d, stderr %s", code, stderr)
	}
}

func TestKernelInput(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-kernel", "linreg", "-format", "json")
	if code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, stderr)
	}
	var res tuner.Result
	if err := json.Unmarshal([]byte(stdout), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Baseline.Verified {
		t.Error("kernel baseline not verified")
	}
}
