package tuner

// The differential acceptance gate (ISSUE 7): for every kernel in
// examples/tune/, the emitted transformed source must (1) re-parse, (2)
// re-lint to zero FS001/FS002 findings, and (3) re-simulate under
// the fsmodel simulator to a strictly lower FS count than the input —
// with a no-op permitted only for the padded-clean kernel.

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fsmodel"
	"repro/internal/machine"
	"repro/internal/minic"
)

func simulateFS(t *testing.T, src string, nestIdx int) int64 {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m := machine.Paper48()
	unit, err := lowerFor(prog, m)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	res, err := fsmodel.Analyze(unit.Nests[nestIdx], fsmodel.Options{
		Machine: m,
	})
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	return res.FSCases
}

func lintFindings(t *testing.T, src string) []analysis.Diagnostic {
	t.Helper()
	prog, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("emitted source does not re-parse: %v\n%s", err, src)
	}
	unit, err := lowerFor(prog, machine.Paper48())
	if err != nil {
		t.Fatalf("emitted source does not lower: %v", err)
	}
	rep, err := analysis.Analyze(unit, analysis.Config{Machine: machine.Paper48(), NoSuggest: true})
	if err != nil {
		t.Fatal(err)
	}
	var fs []analysis.Diagnostic
	for _, d := range rep.Diagnostics {
		if d.Code == analysis.CodeFSWrite || d.Code == analysis.CodeFSPair {
			fs = append(fs, d)
		}
	}
	return fs
}

func TestDifferentialAcceptance(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "tune", "*.c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("tune corpus has only %d kernels", len(files))
	}
	for _, f := range files {
		name := filepath.Base(f)
		t.Run(name, func(t *testing.T) {
			res := tuneExample(t, name, Options{KeepHeader: true})

			// (1) The emitted source re-parses, and (2) lints clean.
			if findings := lintFindings(t, res.Source); len(findings) != 0 {
				t.Errorf("emitted source still has %d FS001/FS002 findings; first: %s %s",
					len(findings), findings[0].Code, findings[0].Message)
			}

			// (3) Strictly lower simulated FS, no-op only for the padded kernel.
			inputFS := res.Baseline.SimulatedFS
			outputFS := simulateFS(t, res.Source, res.Nest)
			if name == "linreg_padded.c" {
				if !res.NoOp {
					t.Errorf("padded-clean kernel must tune to a no-op, got plan %q", res.PlanSummary)
				}
				if inputFS != 0 || outputFS != 0 {
					t.Errorf("padded-clean kernel FS: input %d output %d, want 0/0", inputFS, outputFS)
				}
				return
			}
			if res.NoOp {
				t.Fatalf("FS-inducing kernel tuned to a no-op (baseline FS %d); warnings: %v", inputFS, res.Warnings)
			}
			if outputFS >= inputFS {
				t.Errorf("simulated FS not strictly reduced: input %d, output %d", inputFS, outputFS)
			}
			// The emitted source must match the verified winner's numbers.
			if outputFS != res.Chosen.SimulatedFS {
				t.Errorf("emitted source simulates to FS %d but the report claims %d", outputFS, res.Chosen.SimulatedFS)
			}
			// Header preservation: the corpus files all start with a block
			// comment that must survive the rewrite.
			if !strings.HasPrefix(res.Source, "/*") {
				t.Errorf("leading comment block not preserved:\n%s", res.Source[:min(80, len(res.Source))])
			}
		})
	}
}
