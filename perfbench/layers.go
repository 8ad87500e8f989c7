package main

import (
	"fmt"
	"time"
)

// layerExtras are the per-layer figures that do not come from spans: they
// are measured on the live daemon, counted by the server, or compare the
// traced run with the untraced one. Zero means the workload does not
// exercise that layer.
type layerExtras struct {
	scheddCPU    float64 // schedd CPU per op of the live phase, us
	scheddBase   string
	httpOverhead float64 // live end-to-end p50 minus handler p50, us
	httpBase     string
	queueKB      float64
	queueBase    string
	dryRuns      float64
	dryBase      string
	recsPerOp    float64
	recsBase     string
	overheadPct  float64
	overheadOf   string
}

// emitLayers reports every per-layer metric. A layer the workload never
// enters reports 0 with a base of 0 calls.
func emitLayers(o *outcome, s *traceSummary, ex layerExtras) {
	add := func(name string, v float64, unit, base string) { o.addResult(name, name, v, unit, base) }
	calls := func(n int64) string { return fmt.Sprintf("n=%d calls", n) }
	// mean self time per call, in us
	self := func(span int) {
		a := s.byName[span]
		add(spanNames[span]+"_us", perCall(a.own, a.n), "us", calls(a.n))
	}
	// mean inclusive time per call
	incl := func(metric string, span int, unit time.Duration, unitName string) {
		a := s.byName[span]
		v := 0.0
		if a.n > 0 {
			v = float64(a.total) / float64(a.n) / float64(unit)
		}
		add(metric, v, unitName, calls(a.n))
	}
	// median handler time of one route, in us
	route := func(metric string, span int) {
		d := s.byName[span].durs
		add(metric, us(medianDur(d)), "us", fmt.Sprintf("p50 of %d requests", len(d)))
	}

	add("schedd.cpu_us_per_op", ex.scheddCPU, "us", ex.scheddBase)

	route("serve.post_jobs_us", spRoutePostJobs)
	route("serve.delete_job_us", spRouteDeleteJob)
	route("serve.get_job_us", spRouteGetJob)
	route("serve.get_queue_us", spRouteGetQueue)
	route("serve.get_metrics_us", spRouteGetMetrics)
	add("serve.http_overhead_us", ex.httpOverhead, "us", ex.httpBase)
	add("serve.queue_body_kb", ex.queueKB, "kB", ex.queueBase)
	add("serve.dry_runs_per_write", ex.dryRuns, "ratio", ex.dryBase)
	incl("serve.replay_ms", spServeReplay, time.Millisecond, "ms")

	self(spSimSubmit)
	self(spSimCancel)
	self(spSimAdvance)
	incl("sim.queued_copy_us", spSimQueued, time.Microsecond, "us")
	add("sim.self_s", s.layerSelf("sim").Seconds(), "s", calls(s.layerCalls("sim")))

	incl("sched.arrive_us", spSchedArrive, time.Microsecond, "us")
	incl("sched.launch_us", spSchedLaunch, time.Microsecond, "us")
	incl("sched.cancel_us", spSchedCancel, time.Microsecond, "us")
	l := s.byName[spSchedLaunch]
	add("sched.launch_noop_ratio", ratio(l.noops, l.n), "ratio", fmt.Sprintf("%d of %d launches started nothing", l.noops, l.n))
	incl("sched.forecast_full_us", spForecastFull, time.Microsecond, "us")
	incl("sched.forecast_extend_us", spForecastExtend, time.Microsecond, "us")
	full, ext := s.byName[spForecastFull].n, s.byName[spForecastExtend].n
	add("sched.forecast_extend_ratio", ratio(ext, ext+full), "ratio", fmt.Sprintf("%d extensions, %d full dry-runs", ext, full))
	add("sched.self_s", s.layerSelf("sched").Seconds(), "s", calls(s.layerCalls("sched")))
	add("sched.self_s.easy", s.selfByKind[kindEasy].Seconds(), "s", "sched spans of EASY cells and replays")
	add("sched.self_s.conservative", s.selfByKind[kindConservative].Seconds(), "s", "sched spans of conservative cells")

	auditSelf, auditCalls := s.layerSelf("audit"), s.layerCalls("audit")
	add("audit.self_us_per_op", perCall(auditSelf, auditCalls), "us", calls(auditCalls))
	add("audit.self_s", auditSelf.Seconds(), "s", calls(auditCalls))

	incl("wal.append_us", spWalAppend, time.Microsecond, "us")
	add("wal.records_per_op", ex.recsPerOp, "ratio", ex.recsBase)
	incl("wal.checkpoint_ms", spWalCheckpoint, time.Millisecond, "ms")
	incl("wal.load_ms", spWalLoad, time.Millisecond, "ms")

	g := s.byName[spWorkloadGenerate]
	add("workload.generate_s", g.total.Seconds(), "s", calls(g.n))
	incl("metrics.analyze_ms", spMetricsAnalyze, time.Millisecond, "ms")
	c := s.byName[spCoreRun]
	add("core.run_s", c.total.Seconds(), "s", calls(c.n))

	add("trace.overhead_pct", ex.overheadPct, "%", ex.overheadOf)
}
