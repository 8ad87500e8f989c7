// Command perfbench is the repository benchmark. One invocation runs one
// workload, checks every output the workload produces, prints a report of
// the workload's metrics with units and sample counts, and ends with one
// JSON result line:
//
//	bash perfbench/run.sh --workload submit_burst --seed 7 --seconds 15 --trace 0
//
// The workloads are paper_sweep (the paper's twelve audited cells, in
// process), submit_burst (a burst of submits against a real schedd, then
// SIGKILL and recovery) and poll_mixed (read-mostly polling of a real
// schedd with submit/cancel pairs). With --trace 0 the JSON carries the
// end-to-end metrics BENCHMARK.json declares; with --trace 1 the workload
// is replayed through timing wrappers around each layer and the JSON
// carries the per-layer metrics instead. README.md defines every metric.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runTimeout bounds one invocation. Ops check it between requests, so
// with clientTimeout on the request in flight a run still ends within
// 180 s.
const runTimeout = 160 * time.Second

// scale holds every size a workload uses, so the self-tests can run the
// same code at a fraction of the cost.
type scale struct {
	sweepJobs int // jobs per trace model in paper_sweep
	queue     int // standing queue depth seeded into schedd
	burst     int // submits in one submit_burst burst
	minPasses int // paper_sweep passes at least
	cycles    int // daemon set-up/measure cycles at least
}

var fullScale = scale{sweepJobs: 20000, queue: 4096, burst: 8192, minPasses: 3, cycles: 3}

// config is one invocation.
type config struct {
	root    string // repository root: go.mod, cmd/schedd, BENCHMARK.json
	work    string // scratch directory for this run, removed at exit
	traces  string // where traced runs write their spans
	seed    int64
	seconds float64
	trace   bool
	sc      scale
	pins    pinTable
	out     io.Writer // the human-readable report
}

// metric is one reported figure. base says what it was measured over
// (the sample count, or the denominator of a ratio).
type metric struct {
	name  string
	value float64
	unit  string
	base  string
}

// outcome is what a workload hands back: its figures, the ops it
// attempted and lost, and every output check that failed.
type outcome struct {
	report    []metric // everything, under the workload's own names
	result    []metric // the JSON metrics, under BENCHMARK.json's names
	attempted int64
	failed    int64
	problems  []string
	seen      map[string]bool // problems already recorded
}

func (o *outcome) add(name string, value float64, unit, base string) {
	o.report = append(o.report, metric{name, value, unit, base})
}

// addResult reports a figure under its own name and also carries it into
// the JSON result under key.
func (o *outcome) addResult(key, name string, value float64, unit, base string) {
	o.add(name, value, unit, base)
	o.result = append(o.result, metric{key, value, unit, base})
}

// problem records a failed output check once, however many passes or
// cycles repeat it.
func (o *outcome) problem(format string, args ...any) {
	p := fmt.Sprintf(format, args...)
	if o.seen[p] {
		return
	}
	if o.seen == nil {
		o.seen = map[string]bool{}
	}
	o.seen[p] = true
	o.problems = append(o.problems, p)
}

type workloadFunc func(ctx context.Context, cfg *config) (*outcome, error)

var workloads = map[string]workloadFunc{
	"paper_sweep":  runPaperSweep,
	"submit_burst": runSubmitBurst,
	"poll_mixed":   runPollMixed,
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := flags.String("workload", "", "workload: paper_sweep, submit_burst or poll_mixed")
	seed := flags.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flags.Int("seconds", 15, "how long to measure")
	traceFlag := flags.Int("trace", 0, "1 runs the traced per-layer replay instead of the timed run")
	root := flags.String("root", ".", "repository root")
	pinOut := flags.String("pin", "", "recompute the pinned paper_sweep fingerprints into this file and exit")
	if err := flags.Parse(os.Args[1:]); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *pinOut != "" {
		if err := writePins(ctx, *pinOut, fullScale.sweepJobs, tinyPinJobs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	defer killChildren()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want paper_sweep, submit_burst or poll_mixed)\n", *name)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	decl, err := loadDeclared(abs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	pins, err := loadPins()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Join(abs, ".bench_build"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(filepath.Join(abs, ".bench_build"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	cfg := &config{
		root: abs, work: work, traces: filepath.Join(abs, ".bench_build", "traces"),
		seed: *seed, seconds: float64(*seconds),
		trace: *traceFlag == 1, sc: fullScale, pins: pins, out: os.Stdout,
	}
	fmt.Fprintf(cfg.out, "perfbench env: %s\n", envLine(ctx, abs, *name, cfg))
	o, err := run(ctx, cfg)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	want := decl.EndToEnd
	if cfg.trace {
		want = decl.PerLayer
	}
	line, err := resultLine(o, want)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	printReport(cfg.out, *name, o)
	fmt.Fprintln(cfg.out, line)
	if len(o.problems) > 0 {
		return 1
	}
	return 0
}

// declared is the part of BENCHMARK.json the program checks itself
// against: the metric names and units each mode must emit.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(root string) (*declared, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// resultLine renders the JSON result, refusing to print one whose metric
// set or units differ from what BENCHMARK.json declares.
func resultLine(o *outcome, want []struct{ Name, Unit string }) (string, error) {
	got := make(map[string]metric, len(o.result))
	for _, m := range o.result {
		if _, dup := got[m.name]; dup {
			return "", fmt.Errorf("metric %s reported twice", m.name)
		}
		got[m.name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]value, len(want))
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			return "", fmt.Errorf("metric %s declared in BENCHMARK.json was not measured", w.Name)
		}
		if m.unit != w.Unit {
			return "", fmt.Errorf("metric %s measured in %s, declared in %s", w.Name, m.unit, w.Unit)
		}
		if isBad(m.value) {
			return "", fmt.Errorf("metric %s is %v", w.Name, m.value)
		}
		out[w.Name] = value{m.value, m.unit}
		delete(got, w.Name)
	}
	for n := range got {
		return "", fmt.Errorf("metric %s is not declared in BENCHMARK.json", n)
	}
	if o.attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(o.problems) == 0, o.attempted, o.failed, out})
	return string(b), err
}

func printReport(w io.Writer, name string, o *outcome) {
	rate := float64(o.failed) / float64(max(o.attempted, 1))
	fmt.Fprintf(w, "perfbench %s: %d ops attempted, %d failed\n", name, o.attempted, o.failed)
	fmt.Fprintf(w, "  %-30s %16.6g %-8s %s\n", "error_rate", rate, "ratio", fmt.Sprintf("%d/%d ops", o.failed, o.attempted))
	for _, m := range o.report {
		fmt.Fprintf(w, "  %-30s %16.6g %-8s %s\n", m.name, m.value, m.unit, m.base)
	}
	if len(o.problems) == 0 {
		fmt.Fprintf(w, "perfbench %s: all output checks passed\n", name)
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "perfbench %s: CHECK FAILED: %s\n", name, p)
	}
}

// envLine records what the figures depend on besides the code: machine
// size, both processes' GOMAXPROCS, toolchain, code identity and seed.
func envLine(ctx context.Context, root, name string, cfg *config) string {
	b, _ := json.Marshal(map[string]any{
		"workload":             name,
		"seed":                 cfg.seed,
		"seconds":              cfg.seconds,
		"trace":                cfg.trace,
		"nproc":                runtime.NumCPU(),
		"gomaxprocs_generator": runtime.GOMAXPROCS(0),
		"gomaxprocs_schedd":    scheddGOMAXPROCS,
		"go":                   runtime.Version(),
		"commit":               codeIdentity(ctx, root),
	})
	return string(b)
}

// codeIdentity names the code under test: the git commit when the tree is
// a clean checkout, otherwise a digest of the tracked source files.
func codeIdentity(ctx context.Context, root string) string {
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		st := exec.CommandContext(ctx, "git", "status", "--porcelain", "--untracked-files=no")
		st.Dir = root
		if dirty, err := st.Output(); err == nil && len(dirty) == 0 {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "BENCHMARK.json") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// selfPeakRSSMB is this process's peak resident set (VmHWM) in MiB.
func selfPeakRSSMB() (float64, error) { return peakRSSMB(os.Getpid()) }

// resetPeakRSS restarts this process's VmHWM from its current resident
// set, so each pass's peak can be read on its own.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }
