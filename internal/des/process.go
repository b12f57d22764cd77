// The go1.23 constraint sets this file's language version to Go 1.23,
// which iter.Pull needs, while go.mod stays at go 1.22: the benchmark
// module in perfbench/ pins go 1.22, and raising the root module past it
// makes the benchmark's build fail with "updates to go.mod needed".
// Delete the constraint once both go.mod files say go 1.23.

//go:build go1.23

package des

import (
	"fmt"
	"iter"
)

// Process is a simulated sequential activity — MONARC 2 calls these
// "active objects": threaded entities with their own program counter
// and stack that naturally express concurrently running programs,
// network transfers and stochastic arrival patterns.
//
// Each Process runs as a runtime coroutine (iter.Pull), and the engine
// enforces a strict synchronous handover: at most one of the engine
// loop and the processes executes at any instant, so sequential
// simulations remain fully deterministic while models are written as
// straight-line code with Hold/Acquire/Recv blocking calls. A handover
// is a direct coroutine switch, not a trip through the scheduler.
//
// All Process methods must be called from simulation context (from the
// process's own body, another process body, or an event handler) —
// never from outside Run.
type Process struct {
	e    *Engine
	name string

	// Precomputed trace labels: Hold/Activate/Interrupt are hot in
	// process-heavy models, and rebuilding name+":wake" on every call
	// would put a string concatenation on the steady-state path.
	wakeLabel      string
	activateLabel  string
	interruptLabel string

	// next resumes the body's coroutine until it yields or returns;
	// yield, called by the body, hands control back and reports false
	// once the coroutine is being stopped. next is created at the first
	// resume, so a process that never starts never has a goroutine.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// prevLive and nextLive link the engine's live processes in spawn
	// order (see Engine.Close).
	prevLive, nextLive *Process

	state      procState
	blockToken uint64 // invalidates stale wake events
	killed     bool
	interrupt  bool // set when the current block was broken by Interrupt

	body func(*Process)
}

type procState uint8

const (
	procNew procState = iota
	procRunning
	procBlocked
	procEnded
)

// procKilledSentinel is the panic value used to unwind a killed
// process's coroutine.
type procKilledSentinel struct{}

// Spawn creates a process and schedules its first activation at the
// current simulation time. The body runs as straight-line code using
// the blocking primitives (Hold, Passivate, Resource.Acquire, ...).
func (e *Engine) Spawn(name string, body func(*Process)) *Process {
	return e.SpawnAt(name, 0, body)
}

// SpawnAt is Spawn with a start delay.
func (e *Engine) SpawnAt(name string, delay float64, body func(*Process)) *Process {
	p := &Process{
		e:              e,
		name:           name,
		wakeLabel:      name + ":wake",
		activateLabel:  name + ":activate",
		interruptLabel: name + ":interrupt",
		body:           body,
		prevLive:       e.procTail,
	}
	if e.procTail != nil {
		e.procTail.nextLive = p
	} else {
		e.procHead = p
	}
	e.procTail = p
	e.liveProcs++
	e.ScheduleNamed(name+":start", delay, func() { p.resumeNow() })
	return p
}

// LiveProcesses returns the number of processes that have been spawned
// and have not yet ended. A drained queue with live processes means
// the model deadlocked (every process passive with nothing to wake it).
func (e *Engine) LiveProcesses() int { return e.liveProcs }

// Name returns the process name given at Spawn.
func (p *Process) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Process) Engine() *Engine { return p.e }

// Now returns the current simulation time.
func (p *Process) Now() float64 { return p.e.now }

// Ended reports whether the process body has returned.
func (p *Process) Ended() bool { return p.state == procEnded }

// Close ends every live process in spawn order, so that none of their
// coroutines outlives the simulation: a process that never started is
// marked ended, and a blocked one unwinds as under Kill, running its
// deferred functions. Those functions may schedule events; they stay
// queued. Close is idempotent, and it panics if called while Run is
// executing, where the processes it would unwind still hold state the
// running events use.
func (e *Engine) Close() {
	if e.running {
		panic("des: Close called while Run is executing")
	}
	for e.procHead != nil {
		e.procHead.Kill()
	}
}

// end marks the process ended and unlinks it from the live list.
func (p *Process) end() {
	p.state = procEnded
	e := p.e
	e.liveProcs--
	if p.prevLive != nil {
		p.prevLive.nextLive = p.nextLive
	} else {
		e.procHead = p.nextLive
	}
	if p.nextLive != nil {
		p.nextLive.prevLive = p.prevLive
	} else {
		e.procTail = p.prevLive
	}
	p.prevLive, p.nextLive = nil, nil
}

// run is the coroutine body: it executes the model code from the first
// resume on. A panic other than the kill sentinel crosses next() and
// is re-raised on the engine goroutine, preserving crash semantics for
// model bugs.
func (p *Process) run(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		p.end()
		if r := recover(); r != nil {
			if _, ok := r.(procKilledSentinel); !ok {
				panic(r)
			}
		}
	}()
	p.body(p)
}

// resumeNow transfers control to the process until it blocks or ends.
// It must run in simulation context: an event handler, or Kill called
// from a process body or from Close.
func (p *Process) resumeNow() {
	if p.state == procEnded {
		return
	}
	if p.next == nil {
		p.next, _ = iter.Pull(p.run)
	}
	p.state = procRunning
	p.next()
}

// suspend hands control back to whoever resumed the process. It
// returns when some event calls resumeNow, and unwinds the body if the
// process was killed meanwhile.
func (p *Process) suspend() {
	p.state = procBlocked
	if !p.yield(struct{}{}) || p.killed {
		panic(procKilledSentinel{})
	}
}

// Hold advances the process's local time by d: the process blocks and
// resumes d simulation-time units later. It returns true if the sleep
// was cut short by Interrupt.
func (p *Process) Hold(d float64) (interrupted bool) {
	p.blockToken++
	tok := p.blockToken
	p.interrupt = false
	p.e.ScheduleNamed(p.wakeLabel, d, func() { p.wake(tok) })
	p.suspend()
	return p.interrupt
}

// Passivate blocks the process indefinitely; only Activate, Interrupt,
// or a synchronization primitive can resume it.
func (p *Process) Passivate() {
	p.blockToken++
	p.interrupt = false
	p.suspend()
}

// wake resumes the process if (and only if) it is still in the block
// the token belongs to; stale wakes from canceled sleeps are ignored.
func (p *Process) wake(tok uint64) {
	if p.state != procBlocked || tok != p.blockToken {
		return
	}
	p.resumeNow()
}

// Activate schedules the process to resume at the current simulation
// time (after already-queued events). Activating a process that is not
// blocked — or that blocks again before the activation fires — is a
// harmless no-op, which makes signal/timeout races safe by default.
func (p *Process) Activate() {
	tok := p.blockToken
	p.e.ScheduleNamed(p.activateLabel, 0, func() { p.wake(tok) })
}

// Interrupt breaks the process out of its current Hold or Passivate at
// the current simulation time; the interrupted call reports back via
// its return value (Hold) or the Interrupted flag. Interrupting a
// process that is not blocked is a no-op.
func (p *Process) Interrupt() {
	if p.state != procBlocked {
		return
	}
	tok := p.blockToken
	p.e.ScheduleNamed(p.interruptLabel, 0, func() {
		if p.state != procBlocked || tok != p.blockToken {
			return
		}
		p.interrupt = true
		p.resumeNow()
	})
}

// Interrupted reports whether the most recent block ended in an
// interrupt.
func (p *Process) Interrupted() bool { return p.interrupt }

// Kill terminates a blocked process: its coroutine unwinds (running
// deferred functions) and the process ends without resuming model
// code. Killing an ended process is a no-op; killing a running process
// (i.e. the caller itself) panics, because a process cannot unwind a
// peer that currently holds control.
func (p *Process) Kill() {
	switch p.state {
	case procEnded:
		return
	case procRunning:
		panic(fmt.Sprintf("des: Kill of running process %q", p.name))
	case procNew:
		// Never started: mark ended so the start event is ignored.
		p.end()
		return
	}
	p.killed = true
	p.blockToken++ // invalidate pending wakes
	p.resumeNow()
}
