// Package des implements the discrete-event simulation kernel shared
// by every simulator personality in this repository.
//
// The kernel follows the taxonomy of the reproduced paper:
//
//   - It is an event-driven DES: simulation time advances by irregular
//     increments, directly to the timestamp of the next pending event.
//     A time-driven stepper (TimeDriven) is provided alongside it for
//     the efficiency comparison the paper makes between the two.
//   - The future event list is pluggable (see package eventq), because
//     the paper singles out the queue structure — O(1) calendar-style
//     versus O(log n) tree/heap structures — as the dominant factor in
//     engine performance.
//   - A process-oriented layer (Process, "active objects" in MONARC 2
//     terminology) maps simulated concurrent programs onto runtime
//     coroutines with a strict handover protocol, so sequential runs
//     remain fully deterministic.
//
// Determinism: with equal seeds and equal schedules, runs are
// bit-identical. Simultaneous events execute in schedule (FIFO) order,
// enforced by a monotone sequence number.
package des

import (
	"fmt"
	"math"

	"repro/internal/eventq"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Engine is an event-driven discrete-event simulation kernel.
// An Engine is not safe for concurrent use: exactly one goroutine — the
// one that called Run — executes events, and simulated processes hand
// control back and forth with that goroutine synchronously.
type Engine struct {
	queue eventq.Queue
	now   float64
	seq   uint64
	rng   *rng.Source

	// construction parameters, resolved in NewEngine so option order
	// does not matter (the queue seed must see the engine seed).
	queueKind eventq.Kind
	seed      uint64

	// freeEv is the head of the event free list. Fired and discarded
	// event records are recycled through it, so the steady-state
	// schedule→dequeue→execute cycle performs no heap allocation.
	freeEv *eventq.Event

	// ops is the registered-op table backing ScheduleOp/AtOp: named,
	// restorable event callbacks (see checkpoint.go). Index 0 is a
	// reserved sentinel meaning "closure event"; real ops start at 1.
	ops   []opEntry
	opIdx map[string]uint32

	stopped bool
	running bool

	// statistics
	executed  uint64
	scheduled uint64
	canceled  uint64
	maxQueue  int

	// obs is the attached observability sink; nil when every form of
	// tracing and metrics is off. The hot loop performs exactly one
	// nil-check against it, which is the whole disabled-mode cost.
	obs *Observer

	// live processes in spawn order (see process.go)
	liveProcs          int
	procHead, procTail *Process
}

// Option configures an Engine at construction time.
type Option func(*Engine)

// WithQueue selects the future-event-list implementation.
// The default is the binary heap.
func WithQueue(k eventq.Kind) Option {
	return func(e *Engine) { e.queueKind = k }
}

// WithSeed sets the root seed for the engine's random streams (and for
// any internal randomness of the event queue). The default seed is 1.
func WithSeed(seed uint64) Option {
	return func(e *Engine) { e.seed = seed }
}

// Observer bundles the optional observability attachments of an
// engine. Any field may be nil/zero; an Observer with no attachments
// detaches observability entirely (restoring the nil-check-only path).
//
// All attachments are single-writer from the engine goroutine; they
// must not be shared with another concurrently running engine (the
// federation gives each LP its own, tagged by Track).
type Observer struct {
	// Hook is invoked before each event callback executes.
	Hook obs.Hook
	// Recorder receives execute spans, schedule marks, and
	// canceled-tombstone discard marks, with queue depth.
	Recorder *obs.Recorder
	// Metrics accumulates event-callback wall time and queue dwell.
	Metrics *obs.Metrics
	// Track tags recorded spans with an LP/track id for multi-engine
	// traces.
	Track int
}

// enabled reports whether any attachment is active.
func (o Observer) enabled() bool {
	return o.Hook != nil || o.Recorder != nil || o.Metrics != nil
}

// WithObserver attaches an observability sink at construction time.
func WithObserver(o Observer) Option {
	return func(e *Engine) { e.setObserver(o) }
}

// defaultObserver, when non-nil, is attached by NewEngine to every
// engine not given its own observer. See SetDefaultObserver.
var defaultObserver *Observer

// SetDefaultObserver installs (or, with nil, removes) a process-wide
// observer template applied to subsequently constructed engines that
// have none of their own. It exists for front ends (cmd/lssim) that
// drive personality packages which construct engines internally and
// expose no engine handle. It is not synchronized and the attachments
// are single-writer, so it is only safe for sequential front-end
// wiring — never set it around a parallel federation run (the
// federation attaches per-LP observers instead).
func SetDefaultObserver(o *Observer) { defaultObserver = o }

// NewEngine returns an engine at simulation time 0.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		queueKind: eventq.KindHeap,
		seed:      1,
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.obs == nil && defaultObserver != nil {
		e.setObserver(*defaultObserver)
	}
	e.rng = rng.New(e.seed)
	e.queue = eventq.NewSeeded(e.queueKind, e.seed)
	return e
}

// SetObserver replaces the engine's observability attachments. A zero
// Observer detaches everything. It must not be called while Run is
// executing events.
func (e *Engine) SetObserver(o Observer) { e.setObserver(o) }

func (e *Engine) setObserver(o Observer) {
	if !o.enabled() {
		e.obs = nil
		return
	}
	e.obs = &o
}

// Observer returns a copy of the current attachments (zero when none).
func (e *Engine) Observer() Observer {
	if e.obs == nil {
		return Observer{}
	}
	return *e.obs
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Rand returns the engine's root random source.
func (e *Engine) Rand() *rng.Source { return e.rng }

// Stream returns a named independent random substream. Equal engine
// seeds and equal names always produce identical streams.
func (e *Engine) Stream(name string) *rng.Source { return e.rng.Derive(name) }

// Timer is a handle to a scheduled event; it supports cancellation.
//
// Timer is a small value, not a pointer: the underlying event record
// is engine-owned and recycled through a free list the moment it fires
// or its tombstone is discarded, so the record a handle points at may
// since have been reused for an unrelated event. The handle therefore
// carries the generation it was issued under; Cancel and Canceled
// compare it against the record's current generation, making stale
// calls (cancel-after-fire, cancel-after-recycle) safe no-ops. The
// zero Timer is a valid no-op handle.
type Timer struct {
	ev       *eventq.Event
	gen      uint64
	time     float64
	canceled bool
}

// Time returns the simulation time the event is (or was) due.
func (t Timer) Time() float64 { return t.time }

// Cancel prevents a pending event from firing. Canceling an event that
// already fired (or was already canceled) is a no-op, as is canceling
// the zero Timer. Cancellation is lazy: the tombstoned entry is
// discarded when it reaches the head of the queue, which keeps every
// queue structure free of random removal.
func (t *Timer) Cancel() {
	if t.ev == nil || t.ev.Gen != t.gen {
		return // already fired (and recycled), or zero handle
	}
	t.ev.Canceled = true
	t.canceled = true
}

// Canceled reports whether Cancel was called before the event fired.
func (t Timer) Canceled() bool {
	if t.canceled {
		return true
	}
	return t.ev != nil && t.ev.Gen == t.gen && t.ev.Canceled
}

// Schedule runs fn after delay units of simulation time.
// It panics on negative delay or non-finite delay: scheduling into the
// past is always a model bug.
func (e *Engine) Schedule(delay float64, fn func()) Timer {
	return e.ScheduleNamed("", delay, fn)
}

// ScheduleNamed is Schedule with a trace label.
func (e *Engine) ScheduleNamed(label string, delay float64, fn func()) Timer {
	if delay < 0 || math.IsNaN(delay) || math.IsInf(delay, 0) {
		panic(fmt.Sprintf("des: Schedule with invalid delay %v at t=%v", delay, e.now))
	}
	return e.at(e.now+delay, label, fn)
}

// At runs fn at absolute simulation time t, which must not precede the
// current time.
func (e *Engine) At(t float64, fn func()) Timer {
	if t < e.now || math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("des: At with invalid time %v (now %v)", t, e.now))
	}
	return e.at(t, "", fn)
}

func (e *Engine) at(t float64, label string, fn func()) Timer {
	return e.atEvent(t, label, fn, 0, nil)
}

// atEvent is the common schedule path for closure events (fn non-nil)
// and registered-op events (fn nil, op > 0).
func (e *Engine) atEvent(t float64, label string, fn func(), op uint32, arg []byte) Timer {
	e.seq++
	e.scheduled++
	ev := e.freeEv
	if ev != nil {
		e.freeEv = ev.Next
		ev.Next = nil
		ev.Canceled = false
	} else {
		ev = new(eventq.Event)
	}
	ev.Fn, ev.Label = fn, label
	ev.Op, ev.Arg = op, arg
	if o := e.obs; o != nil {
		// SchedAt is only maintained while observing: the store (and
		// the field's cache traffic) stays off the disabled-mode path.
		// Events scheduled before the observer was attached carry a
		// stale SchedAt; their dwell samples are clamped at zero.
		ev.SchedAt = e.now
		if o.Recorder != nil {
			o.Recorder.Record(obs.Span{
				Kind: obs.KindSchedule, Track: int32(o.Track), Seq: e.seq,
				Time: t, Wall: obs.Now(), Queue: int32(e.queue.Len() + 1), Label: label,
			})
		}
	}
	e.queue.Push(eventq.Item{Time: t, Seq: e.seq, Event: ev})
	if n := e.queue.Len(); n > e.maxQueue {
		e.maxQueue = n
	}
	return Timer{ev: ev, gen: ev.Gen, time: t}
}

// recycle returns a fired or discarded event record to the free list.
// Bumping the generation invalidates every outstanding handle to the
// record; clearing Fn releases the closure.
func (e *Engine) recycle(ev *eventq.Event) {
	ev.Gen++
	ev.Fn = nil
	ev.Op = 0
	ev.Arg = nil
	ev.Label = ""
	ev.Next = e.freeEv
	e.freeEv = ev
}

// OnEvent installs a trace hook invoked before each event executes,
// preserving any other observability attachments. Passing nil removes
// the hook.
func (e *Engine) OnEvent(hook obs.Hook) {
	o := e.Observer()
	o.Hook = hook
	e.setObserver(o)
}

// discard retires a canceled event's tombstone: counts it, records the
// cancel mark when tracing, and recycles the record.
func (e *Engine) discard(it eventq.Item) {
	e.canceled++
	if o := e.obs; o != nil && o.Recorder != nil {
		o.Recorder.Record(obs.Span{
			Kind: obs.KindCancel, Track: int32(o.Track), Seq: it.Seq,
			Time: it.Time, Wall: obs.Now(), Queue: int32(e.queue.Len()), Label: it.Event.Label,
		})
	}
	e.recycle(it.Event)
}

// execObserved runs one event callback under the attached observer:
// hook first, then the timed execution, then the span/histograms.
// Split out of the hot loops so the untraced path stays small enough
// to keep its current shape (and inlining behavior).
func (e *Engine) execObserved(t float64, seq uint64, schedAt float64, label string, fn func(), op uint32, arg []byte) {
	o := e.obs
	qlen := e.queue.Len()
	if o.Hook != nil {
		o.Hook(obs.Event{Time: t, Seq: seq, Label: label, QueueLen: qlen})
	}
	if o.Metrics != nil {
		// Dwell is simulation time spent queued, in nano-units.
		o.Metrics.Dwell.Observe(int64((t - schedAt) * 1e9))
	}
	if o.Recorder == nil && o.Metrics == nil {
		if fn != nil {
			fn()
		} else {
			e.ops[op].fn(arg)
		}
		return
	}
	start := obs.Now()
	if fn != nil {
		fn()
	} else {
		e.ops[op].fn(arg)
	}
	dur := obs.Now() - start
	if o.Metrics != nil {
		o.Metrics.Exec.Observe(dur)
	}
	if o.Recorder != nil {
		o.Recorder.Record(obs.Span{
			Kind: obs.KindExec, Track: int32(o.Track), Seq: seq,
			Time: t, Wall: start, Dur: dur, Queue: int32(qlen), Label: label,
		})
	}
}

// Stop halts Run after the current event completes. It may be called
// from within an event handler or simulated process.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains, Stop is called, or no
// runnable work remains. It returns the final simulation time.
func (e *Engine) Run() float64 { return e.RunUntil(math.Inf(1)) }

// RunUntil executes events with timestamps <= horizon. Events beyond
// the horizon stay queued; the clock is left at min(horizon, time of
// last executed event) — it never advances past work that was actually
// performed, so a subsequent RunUntil continues seamlessly.
func (e *Engine) RunUntil(horizon float64) float64 {
	if e.running {
		panic("des: RunUntil called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	e.stopped = false
	for !e.stopped {
		it, ok := e.queue.Peek()
		if !ok {
			break
		}
		if it.Time > horizon {
			break
		}
		e.queue.Pop()
		ev := it.Event
		if ev.Canceled {
			e.discard(it)
			continue
		}
		if it.Time < e.now {
			panic(fmt.Sprintf("des: event queue returned time %v before now %v", it.Time, e.now))
		}
		e.now = it.Time
		fn, label, op, arg := ev.Fn, ev.Label, ev.Op, ev.Arg
		if e.obs == nil {
			// Recycle before running fn: the record is out of the queue,
			// so events scheduled inside fn can reuse it immediately.
			e.recycle(ev)
			e.executed++
			if fn != nil {
				fn()
			} else {
				e.ops[op].fn(arg)
			}
		} else {
			schedAt := ev.SchedAt
			e.recycle(ev)
			e.executed++
			e.execObserved(it.Time, it.Seq, schedAt, label, fn, op, arg)
		}
	}
	return e.now
}

// Step executes exactly one event if one is pending, returning false
// when the queue is empty. Used by the parallel engine driver.
func (e *Engine) Step() bool {
	for {
		it, ok := e.queue.Peek()
		if !ok {
			return false
		}
		e.queue.Pop()
		ev := it.Event
		if ev.Canceled {
			e.discard(it)
			continue
		}
		e.now = it.Time
		fn, label, op, arg := ev.Fn, ev.Label, ev.Op, ev.Arg
		if e.obs == nil {
			e.recycle(ev)
			e.executed++
			if fn != nil {
				fn()
			} else {
				e.ops[op].fn(arg)
			}
		} else {
			schedAt := ev.SchedAt
			e.recycle(ev)
			e.executed++
			e.execObserved(it.Time, it.Seq, schedAt, label, fn, op, arg)
		}
		return true
	}
}

// PeekTime returns the timestamp of the next pending live event, or
// +Inf when none is queued.
func (e *Engine) PeekTime() float64 {
	for {
		it, ok := e.queue.Peek()
		if !ok {
			return math.Inf(1)
		}
		if it.Event.Canceled {
			e.queue.Pop()
			e.discard(it)
			continue
		}
		return it.Time
	}
}

// Stats reports engine counters: events executed, scheduled, canceled,
// and the high-water mark of the pending-event queue. When an Observer
// with Metrics is attached, the latency histograms ride along.
type Stats struct {
	Executed  uint64
	Scheduled uint64
	Canceled  uint64
	MaxQueue  int

	// Exec is the event-callback wall-time histogram (nanoseconds);
	// nil unless an Observer with Metrics is attached.
	Exec *obs.Histogram
	// Dwell is the schedule→fire queue-dwell histogram in nano-units
	// of simulation time; nil unless Metrics is attached.
	Dwell *obs.Histogram
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		Executed:  e.executed,
		Scheduled: e.scheduled,
		Canceled:  e.canceled,
		MaxQueue:  e.maxQueue,
	}
	if e.obs != nil && e.obs.Metrics != nil {
		s.Exec = &e.obs.Metrics.Exec
		s.Dwell = &e.obs.Metrics.Dwell
	}
	return s
}

// QueueLen returns the number of pending (possibly tombstoned) events.
func (e *Engine) QueueLen() int { return e.queue.Len() }
