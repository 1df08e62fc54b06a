package main

import (
	"context"
	"encoding/json"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/govet"
	"repro/internal/machine"
	"repro/internal/tuner"
)

// staticSetups is how many times static-ci loads its importer and corpus
// before its timed windows, and again after them; setup_s is the median
// over both.
const staticSetups = 5

// srcFile is one corpus file.
type srcFile struct {
	name string // path relative to the repository root
	src  []byte
}

// ciCorpus is everything one static-ci pass reads, loaded in set-up.
type ciCorpus struct {
	lint  []srcFile // testdata/*.c, examples/lint/*.c
	tune  []srcFile // examples/tune/*.c
	govet []srcFile // examples/govet/*.go
	// tuneGolden and govetGolden are the committed golden answers
	// (examples/tune/golden.json, examples/govet/golden.json), keyed by
	// base file name.
	tuneGolden  map[string]string
	govetGolden map[string]string
	fset        *token.FileSet
	imp         types.Importer
}

func readGlob(root, pattern string) ([]srcFile, error) {
	paths, err := filepath.Glob(filepath.Join(root, pattern))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no files match %s", pattern)
	}
	sort.Strings(paths)
	var out []srcFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, p)
		out = append(out, srcFile{name: filepath.ToSlash(rel), src: b})
	}
	return out, nil
}

// loadCorpus is static-ci's set-up: the standard-library importer fsvet
// type-checks against (one `go list -export` run) and the corpus.
func loadCorpus(root string) (*ciCorpus, error) {
	c := &ciCorpus{fset: token.NewFileSet()}
	imp, err := govet.StdImporter(c.fset, "sync", "sync/atomic")
	if err != nil {
		return nil, err
	}
	c.imp = imp
	lint, err := readGlob(root, "testdata/*.c")
	if err != nil {
		return nil, err
	}
	more, err := readGlob(root, "examples/lint/*.c")
	if err != nil {
		return nil, err
	}
	c.lint = append(lint, more...)
	if c.tune, err = readGlob(root, "examples/tune/*.c"); err != nil {
		return nil, err
	}
	if c.govet, err = readGlob(root, "examples/govet/*.go"); err != nil {
		return nil, err
	}

	var tg map[string]struct {
		Plan string `json:"plan"`
		NoOp bool   `json:"no_op"`
	}
	if err := readJSON(filepath.Join(root, "examples/tune/golden.json"), &tg); err != nil {
		return nil, err
	}
	c.tuneGolden = make(map[string]string)
	for name, g := range tg {
		c.tuneGolden[name] = tuneAnswer(g.Plan, g.NoOp)
	}
	var gg map[string][]struct {
		Code string `json:"code"`
		Line int    `json:"line"`
	}
	if err := readJSON(filepath.Join(root, "examples/govet/golden.json"), &gg); err != nil {
		return nil, err
	}
	c.govetGolden = make(map[string]string)
	for name, ds := range gg {
		parts := make([]string, len(ds))
		for i, d := range ds {
			parts[i] = fmt.Sprintf("%s@%d", d.Code, d.Line)
		}
		c.govetGolden[name] = strings.Join(parts, ",")
	}
	return c, nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func machineByName(name string) *machine.Desc {
	switch name {
	case "smalltest":
		return machine.SmallTest()
	case "modern16":
		return machine.Modern16()
	}
	return machine.Paper48()
}

// lintID and tuneID name a file's answer under one configuration.
func lintID(cfg ciConfig, file string) string { return "lint/" + cfg.id() + "/" + file }
func tuneID(cfg ciConfig, file string) string { return "tune/" + cfg.id() + "/" + file }

// passResult is what one static-ci pass produced.
type passResult struct {
	answers    map[string]string // lint and tune answers by id
	govet      map[string]string // fsvet findings by base file name
	candidates int64
	verified   int64
}

// pass runs one CI-style pass under cfg: fslint over the C corpus,
// fstune over the tuning corpus and fsvet over the Go corpus.
func (c *ciCorpus) pass(cfg ciConfig, tr *tracer, req int64) (*passResult, error) {
	mach := machineByName(cfg.Machine)
	out := &passResult{answers: make(map[string]string), govet: make(map[string]string)}
	root := tr.begin(req, 0, "ci.pass")
	defer root.end(0)

	for _, f := range c.lint {
		s := tr.begin(req, root.id, "lint.file")
		ans, err := libraryLint(string(f.src), mach, cfg.Threads, cfg.Chunk, tr, req, s.id)
		s.end(0)
		if err != nil {
			return nil, fmt.Errorf("lint %s: %w", f.name, err)
		}
		out.answers[lintID(cfg, f.name)] = ans
	}

	for _, f := range c.tune {
		s := tr.begin(req, root.id, "tuner.tune")
		res, err := tuner.Tune(context.Background(), string(f.src), tuner.Options{Machine: mach, Threads: cfg.Threads, Chunk: cfg.Chunk})
		if err != nil {
			s.end(0)
			return nil, fmt.Errorf("tune %s: %w", f.name, err)
		}
		var verified int64
		for _, cand := range res.Candidates {
			if cand.Verified {
				verified++
			}
		}
		s.end(int64(len(res.Candidates)))
		out.candidates += int64(len(res.Candidates))
		out.verified += verified
		out.answers[tuneID(cfg, f.name)] = tuneAnswer(res.PlanSummary, res.NoOp)
	}

	for _, f := range c.govet {
		s := tr.begin(req, root.id, "govet.file")
		cs := tr.begin(req, s.id, "govet.check")
		p, _, err := govet.CheckSource(c.fset, filepath.Base(f.name), f.src, c.imp)
		cs.end(0)
		if err != nil {
			s.end(0)
			return nil, fmt.Errorf("fsvet %s: %w", f.name, err)
		}
		p.Machine = mach
		as := tr.begin(req, s.id, "govet.analyze")
		ds, err := govet.Analyze(p)
		as.end(0)
		s.end(0)
		if err != nil {
			return nil, fmt.Errorf("fsvet %s: %w", f.name, err)
		}
		parts := make([]string, len(ds))
		for i, d := range ds {
			parts[i] = fmt.Sprintf("%s@%d", d.Code, p.Fset.Position(d.Pos).Line)
		}
		out.govet[filepath.Base(f.name)] = strings.Join(parts, ",")
	}
	return out, nil
}

// check compares a pass's answers with the recorded expected answers,
// the tuning golden plans (default configuration) and the fsvet goldens.
func (c *ciCorpus) check(cfg ciConfig, r *passResult, expected map[string]string) error {
	var ids []string
	for id := range r.answers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		want, ok := expected[id]
		if !ok {
			return fmt.Errorf("%s: no expected answer recorded", id)
		}
		if got := r.answers[id]; got != want {
			return fmt.Errorf("%s: answer %q, want %q", id, got, want)
		}
	}
	if cfg == (ciConfig{Machine: "paper48"}) {
		for _, f := range c.tune {
			base := filepath.Base(f.name)
			if got, want := r.answers[tuneID(cfg, f.name)], c.tuneGolden[base]; got != want {
				return fmt.Errorf("tune %s: plan %q, golden %q", base, got, want)
			}
		}
	}
	for _, f := range c.govet {
		base := filepath.Base(f.name)
		want, ok := c.govetGolden[base]
		if !ok {
			return fmt.Errorf("fsvet %s: no golden entry", base)
		}
		if got := r.govet[base]; got != want {
			return fmt.Errorf("fsvet %s: findings %q, golden %q", base, got, want)
		}
	}
	return nil
}

// runStaticCI is the static-ci workload: a closed loop of one worker
// running CI-style passes back to back.
func runStaticCI(c *runCtx) error {
	var corpus *ciCorpus
	setUp := func() error {
		for i := 0; i < staticSetups; i++ {
			t0 := time.Now()
			cc, err := loadCorpus(c.root)
			if err != nil {
				return err
			}
			c.setups = append(c.setups, time.Since(t0).Seconds())
			corpus = cc
		}
		return nil
	}
	if err := setUp(); err != nil {
		return err
	}
	// A pass takes milliseconds; 1<<16 configurations outlast any window.
	seq := ciSequence(c.seed, 1<<16)
	next := 0
	runWindow := func(tr *tracer) (*window, error) {
		w := &window{}
		if err := w.begin(nil); err != nil {
			return nil, err
		}
		start := time.Now()
		for time.Since(start) < c.dur {
			if next >= len(seq) {
				w.finish(nil, start)
				return nil, fmt.Errorf("static-ci ran out of pass configurations")
			}
			cfg := seq[next]
			t0 := time.Now()
			r, err := corpus.pass(cfg, tr, int64(next))
			d := ms(time.Since(t0))
			o := op{idx: next, lat: d, svc: d, at: time.Since(start)}
			if err != nil {
				o.bad = err
			} else {
				o.bad = corpus.check(cfg, r, c.expected)
				o.wrong = o.bad != nil
				o.n = []int64{r.candidates, r.verified}
			}
			w.ops = append(w.ops, o)
			next++
		}
		return w, w.finish(nil, start)
	}
	var err error
	if c.plain, err = runWindow(nil); err != nil {
		return err
	}
	if c.trace {
		c.tr = newTracer()
		if c.traced, err = runWindow(c.tr); err != nil {
			return err
		}
	}
	// As many set-ups again after the windows, so that setup_s is a median
	// over the whole run, as in the serve workloads.
	return setUp()
}
