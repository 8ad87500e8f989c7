package main

// submit_burst: a job-array-like burst of submits against a real schedd
// whose machine is pinned by one full-width job and whose queue already
// holds a standing backlog, then SIGKILL and a restart on the same
// journal. Every O(depth) term of the write path is present while depth
// grows through the burst — the audit head scan, the full queue copy on
// publish, the forecast, WAL append and checkpoint — while every
// scheduling pass is a no-op, so a change to the pass itself should leave
// this workload unchanged.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/wal"
)

// burstCycle is one set-up, burst, kill and recovery.
type burstCycle struct {
	setup, recover time.Duration
	writes         latencies
	wall           time.Duration // the burst, first submit sent to last answered
	acked          int
	cpu            time.Duration // schedd CPU over the burst
	rssMB          float64       // the larger VmHWM of the burst daemon and the restarted one
	// Traced runs keep the op log, the journal and the recovered hash.
	log     *opLog
	recs    []wal.Record
	hash    uint64
	records int // journal records the live daemon wrote
	setupW  int // set-up writes
}

func runSubmitBurst(ctx context.Context, cfg *config) (*outcome, error) {
	bin, err := buildSchedd(ctx, cfg.root, cfg.work)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	shapes, err := jobShapes(cfg.sc.queue+cfg.sc.burst, cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	if cfg.trace {
		c, err := runBurstCycle(ctx, cfg, o, bin, shapes, 0, true)
		if err != nil {
			return nil, err
		}
		return traceDaemon(ctx, cfg, o, tr, shapes, c.liveTrace(), "submit_burst")
	}
	var setups, recovers, rss []float64
	writes := &latencies{}
	var cpu, wall time.Duration
	var acked int
	start := time.Now()
	for n := 0; n < cfg.sc.cycles || time.Since(start).Seconds() < cfg.seconds; n++ {
		c, err := runBurstCycle(ctx, cfg, o, bin, shapes, n, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.setup.Seconds())
		recovers = append(recovers, c.recover.Seconds())
		writes.merge(&c.writes)
		wall += c.wall
		cpu += c.cpu
		acked += c.acked
		rss = append(rss, c.rssMB)
	}
	cycles := len(setups)
	o.addResult("setup_s", "setup_s", median(setups), "s",
		fmt.Sprintf("median of %d set-ups: spawn to ready, pin job, %d seeded jobs", cycles, cfg.sc.queue))
	o.addResult("ops_per_s", "write_qps", float64(acked)/wall.Seconds(), "1/s",
		fmt.Sprintf("%d acked submits over %.1f s of %d bursts", acked, wall.Seconds(), cycles))
	base := fmt.Sprintf("n=%d submits, %d failed, %d bursts", writes.n(), writes.failed, cycles)
	o.addResult("op_p50_ms", "write_p50_ms", quantile(writes.ms, 0.50), "ms", base)
	o.addResult("op_p99_ms", "write_p99_ms", quantile(writes.ms, 0.99), "ms", base)
	o.add("recover_s", median(recovers), "s", fmt.Sprintf("median of %d restarts on a %d-job journal", cycles, cfg.sc.queue+cfg.sc.burst+1))
	o.add("schedd_cpu_us_per_write", us(cpu)/float64(max(acked, 1)), "us", fmt.Sprintf("%d acked submits", acked))
	o.addResult("peak_rss_mb", "peak_rss_mb", median(rss), "MB", fmt.Sprintf("median over %d cycles of the larger VmHWM of the burst and the restarted schedd", cycles))
	return o, nil
}

// runBurstCycle sets a daemon up, bursts at it, checks it, kills it,
// replays its journal in process, restarts it on the journal and checks
// the recovered state. Set-up failures are errors; burst failures count
// against the error rate; wrong outputs are problems.
func runBurstCycle(ctx context.Context, cfg *config, o *outcome, bin string, shapes []submitReq, n int, keep bool) (*burstCycle, error) {
	dir := filepath.Join(cfg.work, "burst-"+strconv.Itoa(n))
	defer os.RemoveAll(dir)
	c := &burstCycle{}
	if keep {
		c.log = &opLog{}
	}
	st, err := startStanding(ctx, bin, dir, shapes, cfg.sc.queue, c.log)
	if err != nil {
		return nil, err
	}
	defer st.d.kill()
	c.setup = st.setup
	c.setupW = st.writes
	url := st.d.url

	cpu0, err := st.d.cpuTime()
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var acked []int
	var wg sync.WaitGroup
	t := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := newConn()
			var lat latencies
			var mine []int
			for k := w; k < cfg.sc.burst; k += conns {
				if ctx.Err() != nil {
					return
				}
				i := cfg.sc.queue + k
				t0 := time.Now()
				id, err := submit(cl, url, shapes[i])
				if err != nil {
					lat.fail()
					continue
				}
				lat.ok(t0)
				c.log.add(opSubmit, i, id)
				mine = append(mine, id)
			}
			mu.Lock()
			c.writes.merge(&lat)
			acked = append(acked, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	c.wall = time.Since(t)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, err := st.d.cpuTime()
	if err != nil {
		return nil, err
	}
	c.cpu = cpu1 - cpu0
	c.acked = len(acked)
	o.attempted += int64(c.writes.n())
	o.failed += c.writes.failed

	want := cfg.sc.queue + len(acked)
	checkGauges(o, url, "after the burst", want)
	c.log.add(opMetrics, 0, 0)
	if c.rssMB, err = peakRSSMB(st.d.cmd.Process.Pid); err != nil {
		return nil, err
	}
	st.d.kill()

	seen := make(map[int]bool, len(acked))
	for _, id := range acked {
		if seen[id] {
			o.problem("job ID %d acknowledged twice", id)
		}
		seen[id] = true
	}
	// The shadow replays a copy of the journal on the generator's core
	// while the daemon recovers from the original on its own, so the
	// restarted daemon's appends cannot reach the shadow.
	shadowDir := dir + "-shadow"
	defer os.RemoveAll(shadowDir)
	if err := copyDir(shadowDir, dir); err != nil {
		return nil, fmt.Errorf("copy journal: %w", err)
	}
	type restarted struct {
		d   *daemon
		rec time.Duration
		err error
	}
	rc := make(chan restarted, 1)
	go func() {
		d, rec, err := startDaemon(ctx, bin, dir)
		rc <- restarted{d, rec, err}
	}()
	shadow, recs, err := shadowReplay(shadowDir)
	r := <-rc
	if r.err != nil {
		return nil, fmt.Errorf("restart: %w", r.err)
	}
	d2 := r.d
	defer d2.kill()
	c.recover = r.rec
	if err != nil {
		return nil, err
	}
	snap := shadow.Current()
	for _, id := range acked {
		if _, ok := snap.Jobs.Get(id); !ok {
			o.problem("acknowledged job %d missing from the journal replay", id)
		}
	}
	c.hash = shadow.StateHash()
	c.records = len(recs)
	if keep {
		c.recs = recs
	}

	checkRecovered(o, d2.url, c.hash)
	checkGauges(o, d2.url, "after recovery", want)
	cl := newConn()
	body, err := get(cl, d2.url, "/v1/queue")
	if err != nil {
		o.problem("after recovery: %v", err)
	} else {
		c.log.add(opQueue, 0, 0)
		ids, err := queueIDs(body)
		if err != nil {
			o.problem("after recovery: %v", err)
		}
		queued := make(map[int]bool, len(ids))
		for _, id := range ids {
			queued[id] = true
		}
		if len(ids) != want {
			o.problem("after recovery: /v1/queue lists %d jobs, want %d", len(ids), want)
		}
		for _, id := range acked {
			if !queued[id] {
				o.problem("acknowledged job %d not queued after recovery", id)
			}
		}
	}
	// Spot-check single-job reads of acknowledged jobs after recovery.
	for k := 0; k < len(acked); k += max(1, len(acked)/64) {
		if err := checkJob(cl, d2.url, acked[k]); err != nil {
			o.problem("after recovery: %v", err)
			continue
		}
		c.log.add(opGetJob, 0, acked[k])
	}
	rss, err := peakRSSMB(d2.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	c.rssMB = max(c.rssMB, rss)
	return c, nil
}

// liveTrace hands a traced run what it needs from the live cycle.
func (c *burstCycle) liveTrace() *liveTrace {
	return &liveTrace{
		ops: c.log.sorted(), recs: c.recs, hash: c.hash,
		writes:  c.setupW + c.acked,
		records: c.records,
		cpu:     c.cpu, cpuOps: c.acked,
		route: spRoutePostJobs, routeP50: quantile(c.writes.ms, 0.50),
	}
}

// copyDir copies the regular files of the flat directory src into dst.
func copyDir(dst, src string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			return fmt.Errorf("%s: %s is not a regular file", src, e.Name())
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
