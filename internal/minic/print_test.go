package minic_test

// Round-trip property tests for the printer: for every corpus source that
// parses, Print must produce source that (a) re-parses, (b) is a fixed
// point of Print∘Parse, and (c) lowers to loopir nests identical to the
// original's, with identical closed-form analysis verdicts. The tuner
// leans on exactly this property when it scores a transformed AST by
// printing and re-lowering it.

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/loopir"
	"repro/internal/machine"
	"repro/internal/minic"
)

// corpusSources collects every mini-C source the repo ships: testdata/,
// examples/**/*.c, and the checked-in fuzz corpora.
func corpusSources(tb testing.TB) map[string]string {
	tb.Helper()
	srcs := make(map[string]string)
	for _, pat := range []string{
		filepath.Join("..", "..", "testdata", "*.c"),
		filepath.Join("..", "..", "examples", "*", "*.c"),
	} {
		paths, err := filepath.Glob(pat)
		if err != nil {
			tb.Fatal(err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				tb.Fatal(err)
			}
			srcs[p] = string(data)
		}
	}
	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range corpus {
		if s, ok := decodeFuzzCorpus(p); ok {
			srcs[p] = s
		}
	}
	if len(srcs) < 10 {
		tb.Fatalf("suspiciously small corpus: %d sources", len(srcs))
	}
	return srcs
}

// decodeFuzzCorpus extracts the single string datum from a Go fuzz corpus
// file ("go test fuzz v1\nstring(...)").
func decodeFuzzCorpus(path string) (string, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	lines := strings.SplitN(string(data), "\n", 3)
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "go test fuzz") {
		return "", false
	}
	body := strings.TrimSpace(strings.Join(lines[1:], "\n"))
	if !strings.HasPrefix(body, "string(") || !strings.HasSuffix(body, ")") {
		return "", false
	}
	s, err := strconv.Unquote(body[len("string(") : len(body)-1])
	if err != nil {
		return "", false
	}
	return s, true
}

// lowerSignature renders a position-independent fingerprint of a
// program's lowered form: nest structure plus symbol layout.
func lowerSignature(tb testing.TB, p *minic.Program) (string, bool) {
	tb.Helper()
	unit, err := loopir.Lower(p, loopir.LowerOptions{AllowNonAffine: true, SymbolicBounds: true})
	if err != nil {
		return "", false
	}
	var b strings.Builder
	for _, sym := range unit.SymOrder {
		b.WriteString(sym.Name)
		b.WriteString(":")
		b.WriteString(strconv.FormatInt(sym.Base, 10))
		b.WriteString("\n")
	}
	for _, n := range unit.Nests {
		b.WriteString(n.String())
		b.WriteString("\n")
	}
	return b.String(), true
}

// verdictSignature renders the closed-form diagnostics of a unit in a
// position-independent form (codes, nests, refs, counts).
func verdictSignature(tb testing.TB, p *minic.Program) (string, bool) {
	tb.Helper()
	unit, err := loopir.Lower(p, loopir.LowerOptions{AllowNonAffine: true, SymbolicBounds: true})
	if err != nil {
		return "", false
	}
	rep, err := analysis.Analyze(unit, analysis.Config{Machine: machine.Paper48()})
	if err != nil {
		return "", false
	}
	var b strings.Builder
	for _, d := range rep.Diagnostics {
		b.WriteString(d.Code)
		b.WriteString("|")
		b.WriteString(strconv.Itoa(d.Nest))
		b.WriteString("|")
		b.WriteString(d.Ref)
		b.WriteString("|")
		b.WriteString(strconv.FormatInt(d.Straddles, 10))
		b.WriteString("|")
		b.WriteString(strconv.FormatInt(d.SuggestedChunk, 10))
		b.WriteString("|")
		b.WriteString(strconv.FormatInt(d.PadBytes, 10))
		b.WriteString("\n")
	}
	return b.String(), true
}

// checkRoundTrip asserts the full property for one source; returns false
// if the source does not parse (not a printer concern).
func checkRoundTrip(t *testing.T, name, src string) bool {
	t.Helper()
	p1, err := minic.Parse(src)
	if err != nil {
		return false
	}
	printed := minic.Print(p1)
	p2, err := minic.Parse(printed)
	if err != nil {
		t.Errorf("%s: printed source does not re-parse: %v\n--- printed ---\n%s", name, err, printed)
		return true
	}
	if again := minic.Print(p2); again != printed {
		t.Errorf("%s: Print is not a fixed point\n--- first ---\n%s\n--- second ---\n%s", name, printed, again)
		return true
	}
	sig1, ok1 := lowerSignature(t, p1)
	sig2, ok2 := lowerSignature(t, p2)
	if ok1 != ok2 {
		t.Errorf("%s: lowering disagrees across round trip (orig ok=%v, printed ok=%v)", name, ok1, ok2)
		return true
	}
	if ok1 && sig1 != sig2 {
		t.Errorf("%s: lowered nests differ across round trip\n--- original ---\n%s\n--- round-tripped ---\n%s\n--- printed source ---\n%s",
			name, sig1, sig2, printed)
	}
	v1, okv1 := verdictSignature(t, p1)
	v2, okv2 := verdictSignature(t, p2)
	if okv1 != okv2 {
		t.Errorf("%s: analysis disagrees across round trip (orig ok=%v, printed ok=%v)", name, okv1, okv2)
		return true
	}
	if okv1 && v1 != v2 {
		t.Errorf("%s: analysis verdicts differ across round trip\n--- original ---\n%s\n--- round-tripped ---\n%s", name, v1, v2)
	}
	return true
}

func TestPrintRoundTripCorpus(t *testing.T) {
	parsed := 0
	for name, src := range corpusSources(t) {
		if checkRoundTrip(t, name, src) {
			parsed++
		}
	}
	if parsed < 8 {
		t.Fatalf("only %d corpus sources parsed; round-trip coverage too thin", parsed)
	}
}

// TestPrintEdgeCases pins the printer decisions that a careless change
// would silently regress: float literals must stay floats, unit steps
// print as ++/--, negative steps as -=, unary chains re-lex safely, and
// default static schedules omit the clause.
func TestPrintEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{"float stays float", "x = 1.0;", []string{"x = 1.0;"}},
		{"float exponent", "x = 1e10;", []string{"1e+10"}},
		{"unit step", "for (i = 0; i < 8; i++) x = 1;", []string{"i++"}},
		{"down step", "for (i = 8; i > 0; i--) x = 1;", []string{"i--"}},
		{"negative big step", "for (i = 8; i > 0; i -= 2) x = 1;", []string{"i -= 2"}},
		{"unary operand parens", "x = - - 1;", []string{"-(-(1))"}},
		{"right assoc preserved", "x = 1 + (2 + 3);", []string{"1 + (2 + 3)"}},
		{"left assoc bare", "x = 1 + 2 + 3;", []string{"x = 1 + 2 + 3;"}},
		{"default schedule omitted", "#pragma omp parallel for\nfor (i = 0; i < 8; i++) x = 1;", []string{"#pragma omp parallel for\n"}},
		{"chunked schedule kept", "#pragma omp parallel for schedule(static,4)\nfor (i = 0; i < 8; i++) x = 1;", []string{"schedule(static,4)"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := "double x;\ndouble a[16];\n" + tc.src
			p, err := minic.Parse(src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			printed := minic.Print(p)
			for _, w := range tc.want {
				if !strings.Contains(printed, w) {
					t.Errorf("printed source missing %q:\n%s", w, printed)
				}
			}
			if !checkRoundTrip(t, tc.name, src) {
				t.Fatalf("source unexpectedly failed to parse")
			}
		})
	}
}

func TestLeadingComments(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"// a\n// b\ndouble x;\n", "// a\n// b\n"},
		{"/* block\n   comment */\ndouble x;", "/* block\n   comment */"},
		{"/* a */\n\n// b\ndouble x;", "/* a */\n\n// b\n"},
		{"double x;\n// trailing", ""},
		{"", ""},
		{"/* unterminated", ""},
	}
	for _, tc := range cases {
		if got := minic.LeadingComments(tc.src); got != tc.want {
			t.Errorf("LeadingComments(%q) = %q, want %q", tc.src, got, tc.want)
		}
	}
}

// TestPrintWithHeader checks header carry-over composes with parsing.
func TestPrintWithHeader(t *testing.T) {
	src := "// kernel: demo\ndouble a[8];\nfor (i = 0; i < 8; i++) a[i] = 0.0;\n"
	p, err := minic.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out := minic.PrintOpts(p, minic.PrintOptions{Header: minic.LeadingComments(src)})
	if !strings.HasPrefix(out, "// kernel: demo\n\n") {
		t.Errorf("header not carried over:\n%s", out)
	}
	if _, err := minic.Parse(out); err != nil {
		t.Errorf("headered output does not parse: %v", err)
	}
}

// FuzzPrintRoundTrip is the satellite fuzz target: any input that parses
// must print to source that re-parses, is a Print fixed point, and lowers
// identically.
func FuzzPrintRoundTrip(f *testing.F) {
	// Seeds go in sorted key order so each seed#N names the same input on
	// every run.
	srcs := corpusSources(f)
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(srcs[name])
	}
	f.Fuzz(func(t *testing.T, src string) {
		p1, err := minic.Parse(src)
		if err != nil {
			return // only parsable input has a round trip to check
		}
		printed := minic.Print(p1)
		p2, err := minic.Parse(printed)
		if err != nil {
			t.Fatalf("printed source does not re-parse: %v\n--- printed ---\n%s", err, printed)
		}
		if again := minic.Print(p2); again != printed {
			t.Fatalf("Print not a fixed point\n--- first ---\n%s\n--- second ---\n%s", printed, again)
		}
		u1, err1 := loopir.Lower(p1, loopir.LowerOptions{AllowNonAffine: true, SymbolicBounds: true})
		u2, err2 := loopir.Lower(p2, loopir.LowerOptions{AllowNonAffine: true, SymbolicBounds: true})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("lowering disagrees: orig err=%v, printed err=%v", err1, err2)
		}
		if err1 != nil {
			return
		}
		if len(u1.Nests) != len(u2.Nests) {
			t.Fatalf("nest count differs: %d vs %d", len(u1.Nests), len(u2.Nests))
		}
		for i := range u1.Nests {
			if u1.Nests[i].String() != u2.Nests[i].String() {
				t.Fatalf("nest %d differs\n--- original ---\n%s\n--- round-tripped ---\n%s",
					i, u1.Nests[i].String(), u2.Nests[i].String())
			}
		}
	})
}
