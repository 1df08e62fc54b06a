package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunExitCodes pins the CLI error contract: flag/usage errors exit 2,
// input and analysis errors exit 1 with a diagnostic on stderr, success
// exits 0 with the report on stdout.
func TestRunExitCodes(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "victim.c")
	if err := os.WriteFile(good, []byte(`
#define N 256
double a[N];
#pragma omp parallel for schedule(static,1) num_threads(4)
for (i = 0; i < N; i++) a[i] += 1.0;
`), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.c")
	if err := os.WriteFile(bad, []byte("for (i = 0; j < 4; i++) x = 1;"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantStderr string
		wantStdout string
	}{
		{"success", []string{good}, 0, "", "false-sharing cases"},
		{"unknown flag", []string{"-no-such-flag"}, 2, "flag provided but not defined", ""},
		{"bad flag value", []string{"-threads", "many", good}, 2, "invalid value", ""},
		{"no input", nil, 1, "usage: fsdetect", ""},
		{"two files", []string{good, bad}, 1, "usage: fsdetect", ""},
		{"unknown kernel", []string{"-kernel", "bogus"}, 1, "valid kernels: heat, dft, linreg", ""},
		{"missing file", []string{filepath.Join(dir, "nope.c")}, 1, "no such file", ""},
		{"parse error", []string{bad}, 1, "fsdetect:", ""},
		{"timeout", []string{"-timeout", "1ns", good}, 1, "context deadline exceeded", ""},
		{"bad eval mode", []string{"-eval", "fancy", good}, 2, "flag provided but not defined: -eval", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(tc.args, &stdout, &stderr)
			if code != tc.wantCode {
				t.Errorf("run(%v) = %d, want %d (stderr: %s)", tc.args, code, tc.wantCode, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Errorf("stderr = %q, want it to contain %q", stderr.String(), tc.wantStderr)
			}
			if !strings.Contains(stdout.String(), tc.wantStdout) {
				t.Errorf("stdout = %q, want it to contain %q", stdout.String(), tc.wantStdout)
			}
		})
	}
}
