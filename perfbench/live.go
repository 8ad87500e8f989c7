package main

// Set-up and checks shared by the two daemon workloads.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/workload"
)

const (
	// conns is the number of closed-loop connections: one per core of the
	// two-core machine the benchmark is sized for.
	conns = 2
	// pinRuntime keeps one full-width job running for the whole run, so
	// every job after it queues and every scheduling pass is a no-op.
	pinRuntime = 1_000_000
	// frozenSpeed stops the in-process replays' virtual clock (as
	// cmd/schedload's crash mode does), so each replay is deterministic and
	// its state hash comparable with another replay's.
	frozenSpeed = 1e-9
)

// daemonOptions are the serve.Options schedd builds from its defaults.
func daemonOptions(speed float64, dir string) serve.Options {
	return serve.Options{
		Procs: daemonProcs, Scheduler: "easy", Policy: "FCFS", Audit: true, Speed: speed,
		Durability: serve.DurabilityOptions{Dir: dir},
	}
}

// jobShapes generates n job shapes from the SDSC model (calibrated for the
// daemon's 128 processors) with the paper's "actual" estimates.
func jobShapes(n int, seed int64, tr *tracer) ([]submitReq, error) {
	m, err := workload.NewSDSC(sweepLoad)
	if err != nil {
		return nil, err
	}
	em, err := workload.EstimateModelByName(sweepEstimate)
	if err != nil {
		return nil, err
	}
	i := tr.begin(spWorkloadGenerate)
	js, err := m.Generate(n, seed)
	tr.end(i)
	if err != nil {
		return nil, err
	}
	i = tr.begin(spWorkloadGenerate)
	js = workload.ApplyEstimates(js, em, seed+1)
	tr.end(i)
	out := make([]submitReq, len(js))
	for k, j := range js {
		out[k] = submitReq{Width: j.Width, Runtime: j.Runtime, Estimate: j.Estimate, User: j.User}
	}
	return out, nil
}

var pinJob = submitReq{Width: daemonProcs, Runtime: pinRuntime, Estimate: pinRuntime, User: 1}

// Op kinds of the recorded op log the traced run replays.
const (
	opSubmit = iota
	opCancel
	opGetJob
	opHealthz
	opQueue
	opMetrics
)

// op is one acknowledged operation of a live run. seq orders ops across
// connections by completion; a read is only ever issued for a job whose
// submit has completed, so replaying in seq order is always valid.
type op struct {
	seq   int64
	kind  uint8
	shape int // submit: index into the shapes, -1 for the pin job
	id    int // the live daemon's job ID: assigned (submit) or targeted
}

// opLog collects the acknowledged ops of every connection.
type opLog struct {
	seq atomic.Int64
	mu  sync.Mutex
	ops []op
}

func (l *opLog) add(kind uint8, shape, id int) {
	if l == nil {
		return
	}
	o := op{seq: l.seq.Add(1), kind: kind, shape: shape, id: id}
	l.mu.Lock()
	l.ops = append(l.ops, o)
	l.mu.Unlock()
}

func (l *opLog) sorted() []op {
	out := append([]op(nil), l.ops...)
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// shapeOf returns the request an op log entry submitted.
func shapeOf(shapes []submitReq, i int) submitReq {
	if i < 0 {
		return pinJob
	}
	return shapes[i%len(shapes)]
}

// standing is a daemon with its standing queue in place.
type standing struct {
	d     *daemon
	setup time.Duration // spawn to ready, plus the pin job and the seeding
	// owned[w] is connection w's seeded jobs, oldest first.
	owned [conns][]int
	// writes is every submit the set-up made, pin included.
	writes int
}

// startStanding spawns schedd on dir, pins the machine with one
// full-width job and seeds queue jobs over conns closed-loop connections.
// Any failed set-up request fails the run: the measured phase needs the
// whole standing queue.
func startStanding(ctx context.Context, bin, dir string, shapes []submitReq, queue int, log *opLog) (*standing, error) {
	t0 := time.Now()
	d, _, err := startDaemon(ctx, bin, dir)
	if err != nil {
		return nil, err
	}
	st := &standing{d: d}
	c := newConn()
	id, err := submit(c, d.url, pinJob)
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("pin job: %w", err)
	}
	log.add(opSubmit, -1, id)
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newConn()
			for k := w; k < queue; k += conns {
				if ctx.Err() != nil {
					errs[w] = ctx.Err()
					return
				}
				id, err := submit(c, d.url, shapes[k])
				if err != nil {
					errs[w] = fmt.Errorf("seeding job %d: %w", k, err)
					return
				}
				log.add(opSubmit, k, id)
				st.owned[w] = append(st.owned[w], id)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			d.kill()
			return nil, err
		}
	}
	st.writes = 1 + queue
	st.setup = time.Since(t0)
	return st, nil
}

// gauges reads the queue depth and audit violation gauges.
func gauges(url string) (depth, violations int64, err error) {
	body, err := get(newConn(), url, "/metrics")
	if err != nil {
		return 0, 0, err
	}
	if depth, err = gauge(body, "schedd_queue_depth"); err != nil {
		return 0, 0, err
	}
	violations, err = gauge(body, "schedd_audit_violations")
	return depth, violations, err
}

// checkGauges fails the run unless the daemon reports want queued jobs
// and a clean audit.
func checkGauges(o *outcome, url, when string, want int) {
	depth, viol, err := gauges(url)
	if err != nil {
		o.problem("%s: %v", when, err)
		return
	}
	if depth != int64(want) {
		o.problem("%s: queue depth gauge %d, want %d", when, depth, want)
	}
	if viol != 0 {
		o.problem("%s: schedd_audit_violations %d", when, viol)
	}
}

// shadowReplay loads a dead daemon's journal and replays it from genesis
// into an in-process server, as cmd/schedload's crash mode does.
func shadowReplay(dir string) (*serve.Server, []wal.Record, error) {
	st, err := wal.Load(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("load journal: %w", err)
	}
	recs := st.Ops()
	shadow, err := serve.New(daemonOptions(frozenSpeed, ""))
	if err != nil {
		return nil, nil, err
	}
	if err := shadow.Replay(recs); err != nil {
		return nil, nil, fmt.Errorf("shadow replay: %w", err)
	}
	return shadow, recs, nil
}

// checkRecovered compares a restarted daemon's recovered state hash with
// the shadow replay of the journal it recovered from.
func checkRecovered(o *outcome, url string, shadowHash uint64) {
	hash, recovered, err := durability(newConn(), url)
	if err != nil {
		o.problem("recovery: %v", err)
		return
	}
	if !recovered {
		o.problem("recovery: restarted daemon reports no journal replay")
	}
	if want := strconv.FormatUint(shadowHash, 10); hash != want {
		o.problem("recovery: daemon state hash %s, shadow replay of its journal %s", hash, want)
	}
}
