package main

// paper_sweep: the paper's factorial study in process, the way cmd/sweep
// runs it by default — CTC and SDSC models at load 0.85 with "actual"
// estimates, conservative and EASY backfilling under FCFS, SJF and XF,
// every cell audited, one worker. It is the only workload whose scheduling
// passes do real backfill work, and it has no serve, WAL or HTTP cost.
//
// Like the paper's two fixed traces, the job streams are fixed (cmd/sweep's
// default seed); the seed draws the users' estimates. Regenerating the
// streams per seed would swing a pass's cost by a fifth from seed to seed,
// mostly through how close each stream's realised load sits to
// saturation, and drown the changes the benchmark is meant to show.

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

const (
	sweepBaseLoad = 0.6  // cmd/sweep's -base-load default: models are generated here
	sweepLoad     = 0.85 // then rescaled to the paper's load
	sweepEstimate = "actual"
	// sweepStreamSeed generates both models' job streams: cmd/sweep's -seed
	// default.
	sweepStreamSeed = 42
	// pinSeeds is how many estimate seeds have pinned fingerprints; a
	// --seed selects one of them (see sweepSeed).
	pinSeeds    = 16
	tinyPinJobs = 300 // the self-tests' paper_sweep size
)

var (
	sweepModels   = []string{"CTC", "SDSC"}
	sweepKinds    = []string{"conservative", "easy"}
	sweepPolicies = []string{"FCFS", "SJF", "XF"}
)

// sweepSeed maps any --seed onto one of the pinned estimate seeds 1..16,
// so every seed's schedules can be checked against values pinned from a
// known-good commit.
func sweepSeed(seed int64) int64 { return 1 + (seed%pinSeeds+pinSeeds)%pinSeeds }

// sweepInput is one trace model's job list, ready to simulate.
type sweepInput struct {
	model string
	procs int
	jobs  []*job.Job
}

type sweepCell struct {
	in        *sweepInput
	kind, pol string
}

func (c sweepCell) key() string { return c.in.model + "/" + c.kind + "/" + c.pol }

// sweepCells lists the twelve cells in cmd/sweep's order.
func sweepCells(ins []sweepInput) []sweepCell {
	var cells []sweepCell
	for i := range ins {
		for _, k := range sweepKinds {
			for _, p := range sweepPolicies {
				cells = append(cells, sweepCell{&ins[i], k, p})
			}
		}
	}
	return cells
}

// genSweepInputs builds both models' jobs as cmd/sweep does — generate at
// the base load, rescale to the target load, apply the estimate model —
// with the estimates drawn from seed.
func genSweepInputs(n int, seed int64, tr *tracer) ([]sweepInput, error) {
	em, err := workload.EstimateModelByName(sweepEstimate)
	if err != nil {
		return nil, err
	}
	var out []sweepInput
	for _, name := range sweepModels {
		m, err := workload.ByName(name, sweepBaseLoad)
		if err != nil {
			return nil, err
		}
		i := tr.begin(spWorkloadGenerate)
		js, err := m.Generate(n, sweepStreamSeed)
		tr.end(i)
		if err != nil {
			return nil, err
		}
		scaled, err := trace.ScaleLoad(js, sweepBaseLoad/sweepLoad)
		if err != nil {
			return nil, err
		}
		i = tr.begin(spWorkloadGenerate)
		jobs := workload.ApplyEstimates(scaled, em, seed)
		tr.end(i)
		out = append(out, sweepInput{model: m.Name, procs: m.Procs, jobs: jobs})
	}
	return out, nil
}

// sweepSet is one estimate seed's inputs and pinned fingerprints.
type sweepSet struct {
	seed int64
	ins  []sweepInput
	pins map[string]string
}

// genSweepSet builds the inputs of estimate seed s.
func genSweepSet(cfg *config, s int64, tr *tracer) (sweepSet, error) {
	pins, err := cfg.pins.lookup(cfg.sc.sweepJobs, s)
	if err != nil {
		return sweepSet{}, err
	}
	ins, err := genSweepInputs(cfg.sc.sweepJobs, s, tr)
	return sweepSet{s, ins, pins}, err
}

func runPaperSweep(ctx context.Context, cfg *config) (*outcome, error) {
	o := &outcome{}
	if cfg.trace {
		set, err := genSweepSet(cfg, sweepSeed(cfg.seed), nil)
		if err != nil {
			return nil, err
		}
		return traceSweep(ctx, cfg, o, set)
	}
	// Pass p generates and runs all cells of estimate seed
	// sweepSeed(seed+p). A cell's time is its median over every pass, so
	// neither one draw of the estimates, which decides how expensive the
	// costliest cells are, nor one slow stretch of the machine decides it.
	var times [][]float64
	var setups, rss []float64
	start := time.Now()
	passes := 0
	for ; passes < cfg.sc.minPasses || time.Since(start).Seconds() < cfg.seconds; passes++ {
		t := time.Now()
		set, err := genSweepSet(cfg, sweepSeed(cfg.seed+int64(passes)), nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		cells := sweepCells(set.ins)
		if times == nil {
			times = make([][]float64, len(cells))
		}
		for i, c := range cells {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			t := time.Now()
			res, err := core.Run(core.Config{Procs: c.in.procs, Scheduler: c.kind, Policy: c.pol, Audit: true}, c.in.jobs)
			o.attempted++
			if err != nil {
				o.failed++
				o.problem("cell %s, estimate seed %d: %v", c.key(), set.seed, err)
				continue
			}
			times[i] = append(times[i], float64(time.Since(t))/float64(time.Millisecond))
			checkFingerprint(o, set.pins, c.key(), res.Fingerprint)
		}
		r, err := selfPeakRSSMB()
		if err != nil {
			return nil, err
		}
		rss = append(rss, r)
	}
	o.addResult("setup_s", "setup_s", median(setups), "s",
		fmt.Sprintf("median over %d passes of generating the pass's inputs", len(setups)))
	var runs int
	var total float64
	cellMs := make([]float64, 0, len(times))
	for i := range times {
		if len(times[i]) == 0 {
			return nil, fmt.Errorf("cell %d of the sweep never completed", i+1)
		}
		cellMs = append(cellMs, median(times[i]))
		for _, ms := range times[i] {
			total += ms
		}
		runs += len(times[i])
	}
	o.addResult("ops_per_s", "sim_jobs_per_s", float64(runs*cfg.sc.sweepJobs)/(total/1000), "1/s",
		fmt.Sprintf("%d cell runs × %d jobs over %.1f s of simulation, %d passes", runs, cfg.sc.sweepJobs, total/1000, passes))
	base := fmt.Sprintf("per-cell medians of %d passes, n=%d cells", passes, len(cellMs))
	o.addResult("op_p50_ms", "cell_p50_ms", quantile(cellMs, 0.50), "ms", base)
	o.addResult("op_p99_ms", "cell_p99_ms", quantile(cellMs, 0.99), "ms", base+" (the slowest cell)")
	o.addResult("peak_rss_mb", "peak_rss_mb", median(rss), "MB", fmt.Sprintf("median over %d passes of the sweep process's VmHWM", len(rss)))
	return o, nil
}

func checkFingerprint(o *outcome, pins map[string]string, key string, fp uint64) {
	want, ok := pins[key]
	if !ok {
		o.problem("cell %s has no pinned fingerprint", key)
		return
	}
	if got := strconv.FormatUint(fp, 16); got != want {
		o.problem("cell %s fingerprint %s, pinned %s", key, got, want)
	}
}

// traceSweep runs one untraced pass of the run's first estimate seed
// through core.Run and one traced pass through the same pipeline with a
// timing wrapper around each layer, and requires both to reproduce the
// pinned fingerprints.
func traceSweep(ctx context.Context, cfg *config, o *outcome, set sweepSet) (*outcome, error) {
	tr := newTracer()
	if _, err := genSweepInputs(cfg.sc.sweepJobs, set.seed, tr); err != nil {
		return nil, err
	}
	pins := set.pins
	cells := sweepCells(set.ins)
	t := time.Now()
	for _, c := range cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := core.Run(core.Config{Procs: c.in.procs, Scheduler: c.kind, Policy: c.pol, Audit: true}, c.in.jobs)
		o.attempted++
		if err != nil {
			o.failed++
			o.problem("untraced cell %s: %v", c.key(), err)
			continue
		}
		checkFingerprint(o, pins, c.key(), res.Fingerprint)
	}
	untraced := time.Since(t)
	t = time.Now()
	for _, c := range cells {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fp, err := tracedCell(tr, c)
		o.attempted++
		if err != nil {
			o.failed++
			o.problem("traced cell %s: %v", c.key(), err)
			continue
		}
		checkFingerprint(o, pins, c.key(), fp)
	}
	traced := time.Since(t)
	if err := tr.write(traceFile(cfg, "paper_sweep")); err != nil {
		return nil, err
	}
	sum := tr.summarize()
	emitLayers(o, sum, layerExtras{
		overheadPct: 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds(),
		overheadOf:  fmt.Sprintf("traced pass %.2fs vs untraced %.2fs", traced.Seconds(), untraced.Seconds()),
	})
	return o, nil
}

// tracedCell is core.Run's pipeline with spans around every call into
// sched, audit, sim and metrics, returning the schedule fingerprint.
func tracedCell(tr *tracer, c sweepCell) (uint64, error) {
	ci := tr.begin(spCoreRun)
	defer tr.end(ci)
	pol, err := sched.PolicyByName(c.pol)
	if err != nil {
		return 0, err
	}
	mk, err := sched.MakerFor(c.kind, pol)
	if err != nil {
		return 0, err
	}
	s := mk(c.in.procs)
	inner, err := wrapSched(s, tr, false, kindOf(c.kind))
	if err != nil {
		return 0, err
	}
	aud := audit.New(c.in.procs, inner, audit.OptionsForKind(c.kind, pol))
	outer, err := wrapSched(aud, tr, true, kindNone)
	if err != nil {
		return 0, err
	}
	si := tr.begin(spSimRun)
	ps, err := sim.Run(sim.Machine{Procs: c.in.procs}, c.in.jobs, outer, nil)
	tr.end(si)
	if err != nil {
		return 0, err
	}
	if err := aud.Err(); err != nil {
		return 0, err
	}
	mi := tr.begin(spMetricsAnalyze)
	th := job.PaperThresholds()
	_ = metrics.Analyze(s.Name(), ps, th, c.in.procs)
	_ = metrics.FromPlacements(ps, th)
	fp := metrics.Fingerprint(ps)
	tr.end(mi)
	return fp, nil
}

// pinTable holds the pinned fingerprints: jobs per model → estimate seed
// → cell key → fingerprint in hex.
type pinTable map[string]map[string]map[string]string

//go:embed pins.json
var pinsJSON []byte

func loadPins() (pinTable, error) {
	var p pinTable
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

func (p pinTable) lookup(jobs int, seed int64) (map[string]string, error) {
	m, ok := p[strconv.Itoa(jobs)][strconv.FormatInt(seed, 10)]
	if !ok || len(m) != len(sweepModels)*len(sweepKinds)*len(sweepPolicies) {
		return nil, fmt.Errorf("no pinned fingerprints for %d jobs, workload seed %d", jobs, seed)
	}
	return m, nil
}

// writePins recomputes the fingerprint table for every estimate seed at
// each size. Run it only on a commit whose schedules are known to be
// right: the table is what later commits are checked against.
func writePins(ctx context.Context, path string, sizes ...int) error {
	p := pinTable{}
	for _, n := range sizes {
		bySeed := map[string]map[string]string{}
		for s := int64(1); s <= pinSeeds; s++ {
			ins, err := genSweepInputs(n, s, nil)
			if err != nil {
				return err
			}
			cells := map[string]string{}
			for _, c := range sweepCells(ins) {
				if err := ctx.Err(); err != nil {
					return err
				}
				res, err := core.Run(core.Config{Procs: c.in.procs, Scheduler: c.kind, Policy: c.pol, Audit: true}, c.in.jobs)
				if err != nil {
					return fmt.Errorf("cell %s seed %d: %w", c.key(), s, err)
				}
				cells[c.key()] = strconv.FormatUint(res.Fingerprint, 16)
			}
			bySeed[strconv.FormatInt(s, 10)] = cells
		}
		p[strconv.Itoa(n)] = bySeed
	}
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
