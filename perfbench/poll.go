package main

// poll_mixed: users polling a real schedd that holds a standing queue.
// Each connection works through blocks of 21 ops in a seeded random order:
// 20 reads — 16 GET /v1/jobs/{id} of one of the connection's own queued
// jobs (80%), 2 /healthz (10%), 1 /v1/queue (5%) and 1 /metrics (5%) — and
// one write pair: a submit followed by a cancel of the connection's oldest
// outstanding job, so depth stays constant. Every write invalidates the
// per-version body memos and every cancel forces a full forecast dry-run,
// so the reads that follow a write pay for the re-render. The mix is fixed
// per block rather than drawn op by op because the rare ops cost a hundred
// times a status read: drawing them would let their count, and with it the
// read rate, swing by a seventh between equal stretches of a run.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/wal"
)

// pollBlock is one block of a connection's ops, shuffled per block.
var pollBlock = func() []uint8 {
	b := []uint8{opHealthz, opHealthz, opQueue, opMetrics, opSubmit}
	for len(b) < 21 {
		b = append(b, opGetJob)
	}
	return b
}()

type pollCycle struct {
	setup         time.Duration
	reads, writes latencies
	getJob        latencies // the GET /v1/jobs/{id} share of reads
	wall          time.Duration
	cpu           time.Duration
	rssMB         float64
	pairs         int
	// Traced runs keep the op log, the journal and its replayed hash.
	log     *opLog
	recs    []wal.Record
	hash    uint64
	setupW  int
	records int
}

func runPollMixed(ctx context.Context, cfg *config) (*outcome, error) {
	bin, err := buildSchedd(ctx, cfg.root, cfg.work)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	// Shapes for the standing queue and for the submits of the pairs; a
	// connection that outruns them reuses them from the start.
	shapes, err := jobShapes(cfg.sc.queue+4*cfg.sc.burst, cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	phase := time.Duration(cfg.seconds / float64(cfg.sc.cycles) * float64(time.Second))
	if cfg.trace {
		c, err := runPollCycle(ctx, cfg, o, bin, shapes, 0, phase, true)
		if err != nil {
			return nil, err
		}
		return traceDaemon(ctx, cfg, o, tr, shapes, c.liveTrace(), "poll_mixed")
	}
	var setups, rss []float64
	reads, writes := &latencies{}, &latencies{}
	var wall, cpu time.Duration
	for n := 0; n < cfg.sc.cycles; n++ {
		c, err := runPollCycle(ctx, cfg, o, bin, shapes, n, phase, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.setup.Seconds())
		reads.merge(&c.reads)
		writes.merge(&c.writes)
		wall += c.wall
		cpu += c.cpu
		rss = append(rss, c.rssMB)
	}
	okReads := reads.n() - int(reads.failed)
	okWrites := writes.n() - int(writes.failed)
	o.addResult("setup_s", "setup_s", median(setups), "s",
		fmt.Sprintf("median of %d set-ups: spawn to ready, pin job, %d seeded jobs", len(setups), cfg.sc.queue))
	o.addResult("ops_per_s", "read_qps", float64(okReads)/wall.Seconds(), "1/s",
		fmt.Sprintf("%d ok reads over %.1f s of %d polling phases", okReads, wall.Seconds(), cfg.sc.cycles))
	rbase := fmt.Sprintf("n=%d reads, %d failed", reads.n(), reads.failed)
	o.addResult("op_p50_ms", "read_p50_ms", quantile(reads.ms, 0.50), "ms", rbase)
	o.addResult("op_p99_ms", "read_p99_ms", quantile(reads.ms, 0.99), "ms", rbase)
	wbase := fmt.Sprintf("n=%d writes, %d failed", writes.n(), writes.failed)
	o.add("write_qps", float64(okWrites)/wall.Seconds(), "1/s", wbase)
	o.add("write_p50_ms", quantile(writes.ms, 0.50), "ms", wbase)
	o.add("schedd_cpu_us_per_op", us(cpu)/float64(max(okReads+okWrites, 1)), "us", fmt.Sprintf("%d ok ops", okReads+okWrites))
	o.addResult("peak_rss_mb", "peak_rss_mb", median(rss), "MB", fmt.Sprintf("median VmHWM of %d schedd processes", len(rss)))
	return o, nil
}

// runPollCycle sets a daemon up, polls it for dur over conns closed-loop
// connections and checks its final state.
func runPollCycle(ctx context.Context, cfg *config, o *outcome, bin string, shapes []submitReq, n int, dur time.Duration, keep bool) (*pollCycle, error) {
	dir := filepath.Join(cfg.work, "poll-"+strconv.Itoa(n))
	defer os.RemoveAll(dir)
	c := &pollCycle{}
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
	var wg sync.WaitGroup
	t := time.Now()
	deadline := t.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := newConn()
			rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(n)*101 + int64(w)))
			fifo := append([]int(nil), st.owned[w]...)
			var reads, writes, getJob latencies
			var wrong []string
			pairs := 0
			block := append([]uint8(nil), pollBlock...)
			for j, k := 0, len(block); time.Now().Before(deadline) && ctx.Err() == nil; k++ {
				if k == len(block) {
					rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
					k = 0
				}
				kind := block[k]
				if kind == opSubmit {
					shape := (cfg.sc.queue + w + conns*j) % len(shapes)
					j++
					t0 := time.Now()
					id, err := submit(cl, url, shapes[shape])
					if err != nil {
						writes.fail()
						continue
					}
					writes.ok(t0)
					c.log.add(opSubmit, shape, id)
					fifo = append(fifo, id)
					victim := fifo[0]
					t0 = time.Now()
					if err := cancelJob(cl, url, victim); err != nil {
						writes.fail()
						continue
					}
					writes.ok(t0)
					c.log.add(opCancel, 0, victim)
					fifo = fifo[1:]
					pairs++
					continue
				}
				id := 0
				t0 := time.Now()
				var err error
				switch kind {
				case opGetJob:
					id = fifo[rng.Intn(len(fifo))]
					err = checkJob(cl, url, id)
				case opHealthz:
					err = expectBody(cl, url, "/healthz", `"status":"ok"`)
				case opQueue:
					err = expectBody(cl, url, "/v1/queue", `"queued":[`)
				case opMetrics:
					err = expectBody(cl, url, "/metrics", "schedd_queue_depth ")
				}
				if err != nil {
					reads.fail()
					if kind == opGetJob {
						getJob.fail()
					}
					if errors.Is(err, errWrong) {
						wrong = append(wrong, err.Error())
					}
					continue
				}
				reads.ok(t0)
				if kind == opGetJob {
					getJob.ok(t0)
				}
				c.log.add(kind, 0, id)
			}
			mu.Lock()
			defer mu.Unlock()
			c.reads.merge(&reads)
			c.writes.merge(&writes)
			c.getJob.merge(&getJob)
			c.pairs += pairs
			for _, p := range wrong {
				o.problem("%s", p)
			}
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
	o.attempted += int64(c.reads.n() + c.writes.n())
	o.failed += c.reads.failed + c.writes.failed

	// Quiescent checks: the depth held, the queue listing agrees with the
	// gauge, the audit is clean.
	checkGauges(o, url, "after polling", cfg.sc.queue)
	body, err := get(newConn(), url, "/v1/queue")
	if err != nil {
		o.problem("after polling: %v", err)
	} else if ids, err := queueIDs(body); err != nil {
		o.problem("after polling: %v", err)
	} else if len(ids) != cfg.sc.queue {
		o.problem("after polling: /v1/queue lists %d jobs, depth gauge should be %d", len(ids), cfg.sc.queue)
	}
	if c.rssMB, err = peakRSSMB(st.d.cmd.Process.Pid); err != nil {
		return nil, err
	}
	if keep {
		hash, _, err := durability(newConn(), url)
		if err != nil {
			return nil, err
		}
		st.d.kill()
		shadow, recs, err := shadowReplay(dir)
		if err != nil {
			return nil, err
		}
		c.hash, c.recs, c.records = shadow.StateHash(), recs, len(recs)
		if want := strconv.FormatUint(c.hash, 10); hash != want {
			o.problem("daemon state hash %s, shadow replay of its journal %s", hash, want)
		}
	}
	return c, nil
}

// expectBody GETs path and requires a 200 whose body contains want.
func expectBody(c *http.Client, url, path, want string) error {
	b, err := get(c, url, path)
	if err != nil {
		return err
	}
	if !bytes.Contains(b, []byte(want)) {
		return fmt.Errorf("%w: GET %s body lacks %q", errWrong, path, want)
	}
	return nil
}

func (c *pollCycle) liveTrace() *liveTrace {
	ok := c.reads.n() - int(c.reads.failed) + c.writes.n() - int(c.writes.failed)
	return &liveTrace{
		ops: c.log.sorted(), recs: c.recs, hash: c.hash,
		writes:  c.setupW + 2*c.pairs,
		records: c.records,
		cpu:     c.cpu, cpuOps: ok,
		route: spRouteGetJob, routeP50: quantile(c.getJob.ms, 0.50),
	}
}
