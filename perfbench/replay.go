package main

// The traced run of a daemon workload. The live cycle records its
// acknowledged ops and leaves its journal behind; both are replayed in
// process, each twice — untraced, then traced — so the difference is the
// tracing overhead and the two must end on the same state:
//
//   - through serve.Server, driving the recorded ops through Handler()
//     against a server built from schedd's default Options (with the
//     virtual clock frozen so the replay is deterministic);
//   - through the layers directly: sim.Open over audit.New over a timing
//     wrapper of the sched.MakerFor scheduler, wal.Open/Append per write,
//     a checkpoint where serve would take one, the forecast calls serve
//     makes after each write, and finally wal.Load plus Server.Replay for
//     recovery. This replay must end on the live journal's state hash.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/internal/audit"
	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/wal"
)

// checkpointOps is schedd's -checkpoint-ops default.
const checkpointOps = 4096

// liveTrace is what a traced run takes from its live cycle.
type liveTrace struct {
	ops      []op
	recs     []wal.Record // the live journal, checkpoint prefix then tail
	hash     uint64       // state hash of the journal's shadow replay
	writes   int          // acknowledged writes, set-up included
	records  int          // journal records the live daemon wrote
	cpu      time.Duration
	cpuOps   int
	route    int     // span name of the workload's main route
	routeP50 float64 // its live end-to-end p50, ms
}

func traceFile(cfg *config, name string) string {
	return filepath.Join(cfg.traces, name+".spans.csv.gz")
}

func traceDaemon(ctx context.Context, cfg *config, o *outcome, tr *tracer, shapes []submitReq, lt *liveTrace, name string) (*outcome, error) {
	b0, err := replayServe(ctx, o, lt.ops, shapes, nil, filepath.Join(cfg.work, "serve-untraced"))
	if err != nil {
		return nil, err
	}
	b1, err := replayServe(ctx, o, lt.ops, shapes, tr, filepath.Join(cfg.work, "serve-traced"))
	if err != nil {
		return nil, err
	}
	if b0.hash != b1.hash {
		o.problem("traced serve replay ended on state hash %d, untraced on %d", b1.hash, b0.hash)
	}
	c0, err := replayLayers(ctx, lt.recs, filepath.Join(cfg.work, "layers-untraced"), nil)
	if err != nil {
		return nil, err
	}
	c1, err := replayLayers(ctx, lt.recs, filepath.Join(cfg.work, "layers-traced"), tr)
	if err != nil {
		return nil, err
	}
	for _, c := range []struct {
		what string
		hash uint64
	}{{"untraced layer replay", c0.hash}, {"traced layer replay", c1.hash}} {
		if c.hash != lt.hash {
			o.problem("%s ended on state hash %d, the live journal's replay on %d", c.what, c.hash, lt.hash)
		}
	}
	hash, err := recoverTraced(tr, filepath.Join(cfg.work, "layers-traced"))
	if err != nil {
		return nil, err
	}
	if hash != lt.hash {
		o.problem("recovery of the traced layer replay's journal ended on state hash %d, want %d", hash, lt.hash)
	}
	if err := tr.write(traceFile(cfg, name)); err != nil {
		return nil, err
	}
	sum := tr.summarize()
	untraced, traced := b0.wall+c0.wall, b1.wall+c1.wall
	ex := layerExtras{
		scheddCPU:   us(lt.cpu) / float64(max(lt.cpuOps, 1)),
		scheddBase:  fmt.Sprintf("%d ok ops of the live phase", lt.cpuOps),
		dryRuns:     ratio(b1.dryRuns, int64(b1.writes)),
		dryBase:     fmt.Sprintf("%d dry-runs / %d writes", b1.dryRuns, b1.writes),
		recsPerOp:   ratio(int64(lt.records), int64(lt.writes)),
		recsBase:    fmt.Sprintf("%d records / %d writes", lt.records, lt.writes),
		overheadPct: 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds(),
		overheadOf:  fmt.Sprintf("traced replays %.2fs vs untraced %.2fs", traced.Seconds(), untraced.Seconds()),
	}
	if b1.queueN > 0 {
		ex.queueKB = float64(b1.queueBytes) / float64(b1.queueN) / 1024
		ex.queueBase = fmt.Sprintf("mean of %d bodies", b1.queueN)
	}
	if d := sum.byName[lt.route].durs; len(d) > 0 {
		ex.httpOverhead = lt.routeP50*1000 - us(medianDur(d))
		ex.httpBase = fmt.Sprintf("live %s p50 %.1fus minus handler p50", spanNames[lt.route], lt.routeP50*1000)
	}
	emitLayers(o, sum, ex)
	return o, nil
}

// serveReplay is one pass of the recorded ops through serve.Server.
type serveReplay struct {
	hash       uint64
	wall       time.Duration
	dryRuns    int64
	writes     int
	queueBytes int64
	queueN     int64
}

// replayServe drives ops through Handler() of an in-process server with a
// journal in dir, recording one span per request when tr is non-nil.
func replayServe(ctx context.Context, o *outcome, ops []op, shapes []submitReq, tr *tracer, dir string) (r *serveReplay, err error) {
	srv, err := serve.New(daemonOptions(frozenSpeed, dir))
	if err != nil {
		return nil, err
	}
	runCtx, stop := context.WithCancel(ctx)
	done := make(chan error, 1)
	go func() { done <- srv.Run(runCtx) }()
	defer func() {
		stop()
		if runErr := <-done; runErr != nil && err == nil {
			err = fmt.Errorf("in-process server: %w", runErr)
		}
		if cerr := srv.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	h := srv.Handler()
	ids := make(map[int]int, len(ops))
	r = &serveReplay{}
	t := time.Now()
	for _, op := range ops {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var req *http.Request
		var name, want int
		switch op.kind {
		case opSubmit:
			body, _ := json.Marshal(shapeOf(shapes, op.shape))
			req, name, want = httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)), spRoutePostJobs, http.StatusCreated
		case opCancel:
			req, name, want = httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+strconv.Itoa(ids[op.id]), nil), spRouteDeleteJob, http.StatusNoContent
		case opGetJob:
			req, name, want = httptest.NewRequest(http.MethodGet, "/v1/jobs/"+strconv.Itoa(ids[op.id]), nil), spRouteGetJob, http.StatusOK
		case opHealthz:
			req, name, want = httptest.NewRequest(http.MethodGet, "/healthz", nil), spRouteHealthz, http.StatusOK
		case opQueue:
			req, name, want = httptest.NewRequest(http.MethodGet, "/v1/queue", nil), spRouteGetQueue, http.StatusOK
		case opMetrics:
			req, name, want = httptest.NewRequest(http.MethodGet, "/metrics", nil), spRouteGetMetrics, http.StatusOK
		}
		rec := httptest.NewRecorder()
		i := tr.begin(name)
		h.ServeHTTP(rec, req)
		tr.end(i)
		o.attempted++
		if rec.Code != want {
			o.failed++
			o.problem("replayed %s %s: HTTP %d, want %d", req.Method, req.URL.Path, rec.Code, want)
			continue
		}
		switch op.kind {
		case opSubmit:
			var v struct {
				ID int `json:"id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				return nil, fmt.Errorf("replayed submit: %w", err)
			}
			ids[op.id] = v.ID
			r.writes++
		case opCancel:
			r.writes++
		case opGetJob:
			var v struct {
				ID int `json:"id"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || v.ID != ids[op.id] {
				o.problem("replayed GET job %d answered %q", ids[op.id], rec.Body.String())
			}
		case opQueue:
			r.queueBytes += int64(rec.Body.Len())
			r.queueN++
		}
	}
	r.wall = time.Since(t)
	r.dryRuns = srv.DryRuns()
	r.hash = srv.Durability().StateHash
	return r, nil
}

// layerReplay is one pass of the live journal through the layers.
type layerReplay struct {
	hash uint64
	wall time.Duration
}

// replayLayers re-executes the journal against sim, audit and the EASY
// scheduler directly, journaling it again into dir as serve would. With a
// nil tracer nothing is wrapped.
func replayLayers(ctx context.Context, recs []wal.Record, dir string, tr *tracer) (*layerReplay, error) {
	pol, err := sched.PolicyByName("FCFS")
	if err != nil {
		return nil, err
	}
	mk, err := sched.MakerFor("easy", pol)
	if err != nil {
		return nil, err
	}
	// probe is what the forecast capture asks for reservations, as serve
	// asks its raw scheduler.
	var probe sim.Scheduler = mk(daemonProcs)
	if tr != nil {
		if probe, err = wrapSched(probe, tr, false, kindEasy); err != nil {
			return nil, err
		}
	}
	var outer sim.Scheduler = audit.New(daemonProcs, probe, audit.OptionsForKind("easy", pol))
	if tr != nil {
		if outer, err = wrapSched(outer, tr, true, kindNone); err != nil {
			return nil, err
		}
	}
	sess, err := sim.Open(sim.Machine{Procs: daemonProcs}, outer, nil)
	if err != nil {
		return nil, err
	}
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	fc := &forecaster{pol: pol}
	var history []wal.Record
	var submitted, cancelled int64
	nextID := 1
	t := time.Now()
	for i := 0; i < len(recs); {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// A batch is one write and the clock advances that followed it —
		// what the daemon commits with one append.
		j := i + 1
		for j < len(recs) && recs[j].Op == wal.OpAdvance {
			j++
		}
		batch := append([]wal.Record(nil), recs[i:j]...)
		i = j
		for _, r := range batch {
			switch r.Op {
			case wal.OpSubmit:
				jb := &job.Job{ID: r.Job.ID, Arrival: r.Job.Arrival, Runtime: r.Job.Runtime,
					Estimate: r.Job.Estimate, Width: r.Job.Width, User: r.Job.User}
				s := tr.begin(spSimSubmit)
				err = sess.Submit(jb)
				tr.end(s)
				submitted++
				nextID = max(nextID, jb.ID+1)
			case wal.OpCancel:
				s := tr.begin(spSimCancel)
				ok := sess.Cancel(r.ID)
				tr.end(s)
				if !ok {
					err = fmt.Errorf("journaled cancel of job %d did not apply", r.ID)
				}
				cancelled++
			case wal.OpAdvance:
				s := tr.begin(spSimAdvance)
				err = sess.AdvanceTo(r.To)
				tr.end(s)
			default:
				err = fmt.Errorf("journal op %q is outside this workload", r.Op)
			}
			if err != nil {
				return nil, fmt.Errorf("layer replay of seq %d: %w", r.Seq, err)
			}
		}
		s := tr.begin(spWalAppend)
		err = log.Append(batch)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		for _, r := range batch {
			history = wal.Coalesce(history, r)
		}
		if log.TailRecords() >= checkpointOps {
			meta := wal.Meta{
				Config: wal.Config{Procs: daemonProcs, Scheduler: "easy", Policy: "FCFS", Audit: true},
				SimNow: sess.Now(), NextID: nextID, StateHash: sess.StateHash(),
				Submitted: submitted, Cancelled: cancelled,
			}
			s := tr.begin(spWalCheckpoint)
			err = log.Checkpoint(meta, history)
			tr.end(s)
			if err != nil {
				return nil, err
			}
		}
		s = tr.begin(spSimQueued)
		queued := sess.Queued()
		tr.end(s)
		fc.forecast(tr, sess, probe, queued)
	}
	return &layerReplay{hash: sess.StateHash(), wall: time.Since(t)}, nil
}

// recoverTraced loads the journal in dir and replays it from genesis into
// an in-process server, as recovery and cmd/schedload's crash mode do.
func recoverTraced(tr *tracer, dir string) (uint64, error) {
	s := tr.begin(spWalLoad)
	st, err := wal.Load(dir)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	srv, err := serve.New(daemonOptions(frozenSpeed, ""))
	if err != nil {
		return 0, err
	}
	s = tr.begin(spServeReplay)
	err = srv.Replay(st.Ops())
	tr.end(s)
	if err != nil {
		return 0, err
	}
	return srv.StateHash(), nil
}

// forecaster makes the forecast calls serve makes after each write:
// extending the previous dry-run when the queue only grew at the tail
// under an unchanged clock, running the full dry-run otherwise.
type forecaster struct {
	pol     sched.Policy
	seed    *sched.ForecastSeed
	now     int64
	running []sched.RunningSlot
	queued  []*job.Job
	resv    map[int]int64
}

func (f *forecaster) forecast(tr *tracer, sess *sim.Session, probe any, queued []*job.Job) {
	now := sess.Now()
	var running []sched.RunningSlot
	for _, r := range sess.Running() {
		running = append(running, sched.RunningSlot{Width: r.Job.Width, EstEnd: r.EstEnd})
	}
	resv := sched.Reservations(probe, queued)
	if f.seed != nil && now == f.now && len(queued) >= len(f.queued) &&
		slices.Equal(running, f.running) && slices.Equal(queued[:len(f.queued)], f.queued) &&
		resvKept(f.resv, resv, queued[len(f.queued):]) {
		s := tr.begin(spForecastExtend)
		_, ok := sched.ExtendForecast(f.seed, now, queued[len(f.queued):], f.pol, resv)
		tr.end(s)
		if ok {
			f.running, f.queued, f.resv = running, queued, resv
			return
		}
	}
	s := tr.begin(spForecastFull)
	_, f.seed = sched.ForecastFromStateSeeded(daemonProcs, now, running, queued, f.pol, resv)
	tr.end(s)
	f.now, f.running, f.queued, f.resv = now, running, queued, resv
}

// resvKept reports whether every reservation the previous forecast used
// is unchanged and the only new ones belong to the new arrivals.
func resvKept(old, cur map[int]int64, newJobs []*job.Job) bool {
	n := 0
	for _, j := range newJobs {
		if _, ok := cur[j.ID]; ok {
			n++
		}
	}
	if len(cur)-n != len(old) {
		return false
	}
	for id, t := range old {
		if c, ok := cur[id]; !ok || c != t {
			return false
		}
	}
	return true
}
