package main

import (
	"context"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/sched"
	"repro/internal/sim"
)

// tinyScale runs every workload's code path in seconds.
var tinyScale = scale{sweepJobs: tinyPinJobs, queue: 64, burst: 128, minPasses: 1, cycles: 1}

func tinyConfig(t *testing.T, trace bool) *config {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	return &config{root: root, work: t.TempDir(), traces: t.TempDir(), seed: 5, seconds: 0.5, trace: trace, sc: tinyScale, pins: pins, out: io.Discard}
}

func testContext(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	t.Cleanup(func() {
		cancel()
		killChildren()
	})
	return ctx
}

func declaredMetrics(t *testing.T, cfg *config) []struct{ Name, Unit string } {
	t.Helper()
	d, err := loadDeclared(cfg.root)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.trace {
		return d.PerLayer
	}
	return d.EndToEnd
}

// TestWorkloadsTiny runs each workload, timed and traced, at a tiny scale:
// every output check must pass and the result must carry exactly the
// metrics BENCHMARK.json declares.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range []string{"paper_sweep", "submit_burst", "poll_mixed"} {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/timed", true: "/traced"}[trace], func(t *testing.T) {
				cfg := tinyConfig(t, trace)
				o, err := workloads[name](testContext(t), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(o.problems) > 0 {
					t.Fatalf("output checks failed:\n%s", strings.Join(o.problems, "\n"))
				}
				if o.failed != 0 || o.attempted == 0 {
					t.Fatalf("%d of %d ops failed", o.failed, o.attempted)
				}
				if _, err := resultLine(o, declaredMetrics(t, cfg)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCorruptedPinFailsSweep proves the fingerprint check can fail.
func TestCorruptedPinFailsSweep(t *testing.T) {
	cfg := tinyConfig(t, false)
	cells := cfg.pins["300"]["6"] // --seed 5 selects workload seed 6
	if cells == nil {
		t.Fatal("no pins for the tiny scale")
	}
	cells["SDSC/easy/XF"] = "0"
	o, err := runPaperSweep(testContext(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.problems) != 1 || !strings.Contains(o.problems[0], "SDSC/easy/XF fingerprint") {
		t.Fatalf("problems = %q, want one fingerprint mismatch for SDSC/easy/XF", o.problems)
	}
}

// TestCorruptedHashFailsTrace proves the traced replays are checked
// against the live journal's state hash.
func TestCorruptedHashFailsTrace(t *testing.T) {
	cfg := tinyConfig(t, true)
	ctx := testContext(t)
	bin, err := buildSchedd(ctx, cfg.root, cfg.work)
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := jobShapes(cfg.sc.queue+cfg.sc.burst, cfg.seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := &outcome{}
	c, err := runBurstCycle(ctx, cfg, o, bin, shapes, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.problems) > 0 {
		t.Fatalf("live cycle: %q", o.problems)
	}
	lt := c.liveTrace()
	lt.hash ^= 1
	if _, err := traceDaemon(ctx, cfg, o, newTracer(), shapes, lt, "submit_burst-corrupt"); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, p := range o.problems {
		if strings.Contains(p, "state hash") {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("problems = %q, want the untraced, traced and recovered layer replays to disagree with the corrupted hash", o.problems)
	}
}

// TestRecoveryCheck runs the recovered-hash check against a restarted
// daemon with the right and a wrong expected hash.
func TestRecoveryCheck(t *testing.T) {
	cfg := tinyConfig(t, false)
	ctx := testContext(t)
	bin, err := buildSchedd(ctx, cfg.root, cfg.work)
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := jobShapes(8, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(cfg.work, "journal")
	st, err := startStanding(ctx, bin, dir, shapes, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.d.kill()
	shadow, _, err := shadowReplay(dir)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := startDaemon(ctx, bin, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.kill()
	good := &outcome{}
	checkRecovered(good, d.url, shadow.StateHash())
	checkGauges(good, d.url, "after recovery", 8)
	if len(good.problems) > 0 {
		t.Fatalf("matching hash: %q", good.problems)
	}
	bad := &outcome{}
	checkRecovered(bad, d.url, shadow.StateHash()+1)
	checkGauges(bad, d.url, "after recovery", 9)
	if len(bad.problems) != 2 {
		t.Fatalf("wrong hash and depth: problems = %q, want 2", bad.problems)
	}
}

// TestWrapSchedKeepsCapabilities checks that a timing wrapper never
// changes which optional interfaces the engine finds: for every scheduler
// kind, and for the auditor around each, the wrapper either exposes the
// same set or refuses to wrap.
func TestWrapSchedKeepsCapabilities(t *testing.T) {
	pol := sched.FCFS{}
	for _, kind := range sched.Kinds() {
		mk, err := sched.MakerFor(kind, pol)
		if err != nil {
			t.Fatal(err)
		}
		s := mk(64)
		aud := audit.New(64, s, audit.OptionsForKind(kind, pol))
		for _, c := range []struct {
			in    sim.Scheduler
			audit bool
		}{{s, false}, {aud, true}} {
			w, err := wrapSched(c.in, newTracer(), c.audit, kindNone)
			if err != nil {
				if c.audit || kind == "easy" || kind == "conservative" {
					t.Errorf("%s (audit %v): %v", kind, c.audit, err)
				}
				continue
			}
			if got, want := capsOf(w), capsOf(c.in); got != want {
				t.Errorf("%s (audit %v): wrapper capabilities %05b, scheduler %05b", kind, c.audit, got, want)
			}
		}
	}
}

func TestResultLineRejectsMismatch(t *testing.T) {
	want := []struct{ Name, Unit string }{{"a", "s"}, {"b", "ms"}}
	ok := &outcome{attempted: 1, result: []metric{{name: "a", value: 1, unit: "s"}, {name: "b", value: 2, unit: "ms"}}}
	if _, err := resultLine(ok, want); err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]*outcome{
		"missing":    {attempted: 1, result: []metric{{name: "a", value: 1, unit: "s"}}},
		"extra":      {attempted: 1, result: append(append([]metric(nil), ok.result...), metric{name: "c", value: 1, unit: "s"})},
		"wrong unit": {attempted: 1, result: []metric{{name: "a", value: 1, unit: "ms"}, {name: "b", value: 2, unit: "ms"}}},
		"nan":        {attempted: 1, result: []metric{{name: "a", value: math.NaN(), unit: "s"}, {name: "b", value: 2, unit: "ms"}}},
		"no ops":     {result: ok.result},
	} {
		if _, err := resultLine(o, want); err == nil {
			t.Errorf("%s: resultLine accepted it", name)
		}
	}
}
