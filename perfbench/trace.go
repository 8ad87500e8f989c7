package main

// Tracing lives entirely in the benchmark: spans are recorded around calls
// into each layer's public functions, never inside the program. A traced
// replay runs on one goroutine, so the tracer keeps a plain stack of open
// spans; the parent of a new span is whatever span is open when it begins.

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/job"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Span names. The prefix before the first dot is the layer, named after
// the repository module the call enters.
const (
	spCoreRun = iota
	spSimRun
	spSimSubmit
	spSimCancel
	spSimAdvance
	spSimQueued
	spMetricsAnalyze
	spWorkloadGenerate
	spForecastFull
	spForecastExtend
	spWalAppend
	spWalCheckpoint
	spWalLoad
	spServeReplay
	spRoutePostJobs
	spRouteDeleteJob
	spRouteGetJob
	spRouteGetQueue
	spRouteGetMetrics
	spRouteHealthz
	// Per-method spans of a wrapped scheduler; the audit layer's block
	// follows the sched layer's at a fixed offset.
	spSchedArrive
	spSchedComplete
	spSchedLaunch
	spSchedCancel
	spSchedWake
	spSchedQueued
	spSchedResv
	spAuditArrive
	spAuditComplete
	spAuditLaunch
	spAuditCancel
	spAuditWake
	spAuditQueued
	spAuditResv
	numSpanNames
)

const auditOffset = spAuditArrive - spSchedArrive

var spanNames = [numSpanNames]string{
	spCoreRun:          "core.run",
	spSimRun:           "sim.run",
	spSimSubmit:        "sim.submit",
	spSimCancel:        "sim.cancel",
	spSimAdvance:       "sim.advance",
	spSimQueued:        "sim.queued",
	spMetricsAnalyze:   "metrics.analyze",
	spWorkloadGenerate: "workload.generate",
	spForecastFull:     "sched.forecast_full",
	spForecastExtend:   "sched.forecast_extend",
	spWalAppend:        "wal.append",
	spWalCheckpoint:    "wal.checkpoint",
	spWalLoad:          "wal.load",
	spServeReplay:      "serve.replay",
	spRoutePostJobs:    "serve.post_jobs",
	spRouteDeleteJob:   "serve.delete_job",
	spRouteGetJob:      "serve.get_job",
	spRouteGetQueue:    "serve.get_queue",
	spRouteGetMetrics:  "serve.get_metrics",
	spRouteHealthz:     "serve.healthz",
	spSchedArrive:      "sched.arrive",
	spSchedComplete:    "sched.complete",
	spSchedLaunch:      "sched.launch",
	spSchedCancel:      "sched.cancel",
	spSchedWake:        "sched.next_wake",
	spSchedQueued:      "sched.queued_jobs",
	spSchedResv:        "sched.reservation",
	spAuditArrive:      "audit.arrive",
	spAuditComplete:    "audit.complete",
	spAuditLaunch:      "audit.launch",
	spAuditCancel:      "audit.cancel",
	spAuditWake:        "audit.next_wake",
	spAuditQueued:      "audit.queued_jobs",
	spAuditResv:        "audit.reservation",
}

// spanLayers maps each span name to its layer.
var spanLayers = func() (out [numSpanNames]string) {
	for i, n := range spanNames {
		out[i], _, _ = strings.Cut(n, ".")
	}
	return out
}()

// Scheduler kinds a sched span can be attributed to.
const (
	kindNone = iota
	kindEasy
	kindConservative
)

var kindNames = [...]string{kindNone: "", kindEasy: "easy", kindConservative: "conservative"}

func kindOf(name string) uint8 {
	switch name {
	case "easy":
		return kindEasy
	case "conservative":
		return kindConservative
	}
	return kindNone
}

// span is one recorded call. Times are nanoseconds since the tracer began.
type span struct {
	start, end int64
	parent     int32 // index of the enclosing span, -1 at top level
	name       uint8
	kind       uint8
	noop       bool // a launch that started and suspended nothing
}

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so traced and untraced code paths share their shape.
type tracer struct {
	t0     time.Time
	spans  []span
	open   []int32
	counts [numSpanNames]int64 // calls recorded without a span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin(name int) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{start: int64(time.Since(t.t0)), parent: parent, name: uint8(name)})
	i := int32(len(t.spans) - 1)
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// spanAgg is one span name's totals: calls, inclusive time and self time
// (inclusive minus the time covered by direct children).
type spanAgg struct {
	n          int64
	total, own time.Duration
	noops      int64
	durs       []time.Duration // per-call inclusive times of serve spans, for medians
}

type traceSummary struct {
	byName [numSpanNames]spanAgg
	// selfByKind is sched-layer self time per scheduler kind.
	selfByKind [len(kindNames)]time.Duration
}

func (t *tracer) summarize() *traceSummary {
	s := &traceSummary{}
	child := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	for i, sp := range t.spans {
		a := &s.byName[sp.name]
		d := time.Duration(sp.end - sp.start)
		own := d - time.Duration(child[i])
		a.n++
		a.total += d
		a.own += own
		if sp.noop {
			a.noops++
		}
		switch spanLayers[sp.name] {
		case "serve":
			a.durs = append(a.durs, d)
		case "sched":
			s.selfByKind[sp.kind] += own
		}
	}
	return s
}

// layerSelf is the summed self time of every span in layer.
func (s *traceSummary) layerSelf(layer string) time.Duration {
	var d time.Duration
	for name := range s.byName {
		if spanLayers[name] == layer {
			d += s.byName[name].own
		}
	}
	return d
}

// layerCalls counts the spans recorded in layer.
func (s *traceSummary) layerCalls(layer string) int64 {
	var n int64
	for name := range s.byName {
		if spanLayers[name] == layer {
			n += s.byName[name].n
		}
	}
	return n
}

// write stores the spans as gzipped CSV (index, parent, name, kind, start
// and end in nanoseconds), followed by the calls counted without spans, so
// a run's trace can be inspected afterwards.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(zw, 1<<16)
	fmt.Fprintln(w, "id,parent,name,kind,start_ns,end_ns")
	for i, sp := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%s,%d,%d\n", i, sp.parent, spanNames[sp.name], kindNames[sp.kind], sp.start, sp.end)
	}
	for name, n := range t.counts {
		if n > 0 {
			fmt.Fprintf(w, "# counted without spans: %s %d\n", spanNames[name], n)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// Optional scheduler capabilities the engine, the auditor, state hashing
// and the forecast capture discover by type assertion. A timing wrapper
// must expose exactly the set its inner scheduler has, or wrapping would
// change what the engine does.
const (
	capCancel = 1 << iota
	capResv
	capWake
	capPreempt
	capGuarantee
)

func capsOf(s any) int {
	c := 0
	if _, ok := s.(sched.Canceler); ok {
		c |= capCancel
	}
	if _, ok := s.(sched.Reservist); ok {
		c |= capResv
	}
	if _, ok := s.(sim.Waker); ok {
		c |= capWake
	}
	if _, ok := s.(sim.Preemptor); ok {
		c |= capPreempt
	}
	if _, ok := s.(interface{ Guarantee(int) (int64, bool) }); ok {
		c |= capGuarantee
	}
	return c
}

// tsched records one span per call into a scheduler. off shifts the sched
// layer's span names to the audit layer's block when the wrapped scheduler
// is the auditor.
type tsched struct {
	in   sim.Scheduler
	tr   *tracer
	off  int
	kind uint8
}

// call opens a span for one scheduler method.
func (w *tsched) call(name int) int32 {
	i := w.tr.begin(name + w.off)
	w.tr.spans[i].kind = w.kind
	return i
}

func (w *tsched) Name() string { return w.in.Name() }

func (w *tsched) Arrive(now int64, j *job.Job) {
	i := w.call(spSchedArrive)
	w.in.Arrive(now, j)
	w.tr.end(i)
}

func (w *tsched) Complete(now int64, j *job.Job) {
	i := w.call(spSchedComplete)
	w.in.Complete(now, j)
	w.tr.end(i)
}

func (w *tsched) Launch(now int64) []*job.Job {
	i := w.call(spSchedLaunch)
	js := w.in.Launch(now)
	w.tr.end(i)
	w.tr.spans[i].noop = len(js) == 0
	return js
}

func (w *tsched) QueuedJobs() []*job.Job {
	i := w.call(spSchedQueued)
	js := w.in.QueuedJobs()
	w.tr.end(i)
	return js
}

func (w *tsched) cancel(now int64, j *job.Job) bool {
	i := w.call(spSchedCancel)
	ok := w.in.(sched.Canceler).Cancel(now, j)
	w.tr.end(i)
	return ok
}

// reservation is counted, not timed: the auditor and state hashing probe
// every queued job's reservation after each event, and a span per probe
// would cost more than the lookup it measures.
func (w *tsched) reservation(id int) (int64, bool) {
	w.tr.counts[spSchedResv+w.off]++
	return w.in.(sched.Reservist).Reservation(id)
}

func (w *tsched) nextWake(now int64) int64 {
	i := w.call(spSchedWake)
	t := w.in.(sim.Waker).NextWake(now)
	w.tr.end(i)
	return t
}

func (w *tsched) launchAndPreempt(now int64) (starts, suspends []*job.Job) {
	i := w.call(spSchedLaunch)
	starts, suspends = w.in.(sim.Preemptor).LaunchAndPreempt(now)
	w.tr.end(i)
	w.tr.spans[i].noop = len(starts) == 0 && len(suspends) == 0
	return starts, suspends
}

// The capability sets in use: EASY cancels; conservative also holds
// reservations and asks for wake-ups; the auditor exposes all four.
type (
	tschedC    struct{ *tsched }
	tschedCRW  struct{ *tsched }
	tschedCRWP struct{ tschedCRW }
)

func (w tschedC) Cancel(now int64, j *job.Job) bool   { return w.cancel(now, j) }
func (w tschedCRW) Cancel(now int64, j *job.Job) bool { return w.cancel(now, j) }
func (w tschedCRW) Reservation(id int) (int64, bool)  { return w.reservation(id) }
func (w tschedCRW) NextWake(now int64) int64          { return w.nextWake(now) }
func (w tschedCRWP) LaunchAndPreempt(now int64) ([]*job.Job, []*job.Job) {
	return w.launchAndPreempt(now)
}

// wrapSched returns a timing wrapper around in that records spans under
// the sched layer (audit false) or the audit layer (audit true) and
// forwards exactly the optional interfaces in implements. A scheduler with
// a capability set no wrapper covers is refused rather than silently
// stripped of a capability.
func wrapSched(in sim.Scheduler, tr *tracer, audit bool, kind uint8) (sim.Scheduler, error) {
	t := &tsched{in: in, tr: tr, kind: kind}
	if audit {
		t.off = auditOffset
	}
	var out sim.Scheduler
	switch capsOf(in) {
	case capCancel:
		out = tschedC{t}
	case capCancel | capResv | capWake:
		out = tschedCRW{t}
	case capCancel | capResv | capWake | capPreempt:
		out = tschedCRWP{tschedCRW{t}}
	default:
		return nil, fmt.Errorf("perfbench: no timing wrapper for %s with capability set %05b", in.Name(), capsOf(in))
	}
	if got, want := capsOf(out), capsOf(in); got != want {
		return nil, fmt.Errorf("perfbench: timing wrapper for %s exposes capabilities %05b, scheduler has %05b", in.Name(), got, want)
	}
	return out, nil
}
