package des

import (
	"runtime"
	"slices"
	"testing"
)

func TestProcessHold(t *testing.T) {
	e := NewEngine()
	var trace []float64
	e.Spawn("worker", func(p *Process) {
		trace = append(trace, p.Now())
		p.Hold(5)
		trace = append(trace, p.Now())
		p.Hold(2.5)
		trace = append(trace, p.Now())
	})
	e.Run()
	want := []float64{0, 5, 7.5}
	if len(trace) != 3 {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if e.LiveProcesses() != 0 {
		t.Fatalf("live processes = %d", e.LiveProcesses())
	}
}

func TestSpawnAt(t *testing.T) {
	e := NewEngine()
	var start float64 = -1
	e.SpawnAt("late", 10, func(p *Process) { start = p.Now() })
	e.Run()
	if start != 10 {
		t.Fatalf("start = %v", start)
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	e := NewEngine()
	var order []string
	for _, d := range []struct {
		name string
		step float64
	}{{"a", 3}, {"b", 2}} {
		d := d
		e.Spawn(d.name, func(p *Process) {
			for i := 0; i < 3; i++ {
				p.Hold(d.step)
				order = append(order, d.name)
			}
		})
	}
	e.Run()
	// a wakes at 3,6,9; b wakes at 2,4,6. At t=6 a was scheduled
	// (spawned) first... wakes are scheduled when Hold is called:
	// b's t=6 wake is scheduled at t=4, a's t=6 wake at t=3, so a
	// precedes b at the tie.
	want := []string{"b", "a", "b", "a", "b", "a"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPassivateActivate(t *testing.T) {
	e := NewEngine()
	var resumedAt float64 = -1
	sleeper := e.Spawn("sleeper", func(p *Process) {
		p.Passivate()
		resumedAt = p.Now()
	})
	e.Spawn("waker", func(p *Process) {
		p.Hold(4)
		sleeper.Activate()
	})
	e.Run()
	if resumedAt != 4 {
		t.Fatalf("resumedAt = %v", resumedAt)
	}
}

func TestHoldInterrupt(t *testing.T) {
	e := NewEngine()
	var interrupted bool
	var at float64
	sleeper := e.Spawn("sleeper", func(p *Process) {
		interrupted = p.Hold(100)
		at = p.Now()
	})
	e.Spawn("breaker", func(p *Process) {
		p.Hold(3)
		sleeper.Interrupt()
	})
	e.Run()
	if !interrupted {
		t.Fatal("Hold not reported interrupted")
	}
	if at != 3 {
		t.Fatalf("interrupt at %v, want 3", at)
	}
}

func TestStaleWakeIgnored(t *testing.T) {
	e := NewEngine()
	var wakeTimes []float64
	sleeper := e.Spawn("sleeper", func(p *Process) {
		p.Passivate()
		wakeTimes = append(wakeTimes, p.Now())
		p.Passivate() // should NOT be woken by a duplicate activation
		wakeTimes = append(wakeTimes, p.Now())
	})
	e.Spawn("waker", func(p *Process) {
		p.Hold(1)
		sleeper.Activate()
		sleeper.Activate() // duplicate: must not wake the second Passivate
		p.Hold(5)
		sleeper.Activate()
	})
	e.Run()
	if len(wakeTimes) != 2 || wakeTimes[0] != 1 || wakeTimes[1] != 6 {
		t.Fatalf("wakeTimes = %v", wakeTimes)
	}
}

func TestInterruptNotBlockedIsNoop(t *testing.T) {
	e := NewEngine()
	p1 := e.Spawn("p1", func(p *Process) { p.Hold(1) })
	e.Schedule(5, func() { p1.Interrupt() }) // p1 already ended
	e.Run()
	if e.LiveProcesses() != 0 {
		t.Fatal("processes leaked")
	}
}

func TestKillBlockedProcess(t *testing.T) {
	e := NewEngine()
	cleaned := false
	victim := e.Spawn("victim", func(p *Process) {
		defer func() { cleaned = true }()
		p.Hold(1000)
		t.Error("victim resumed after kill")
	})
	e.Spawn("killer", func(p *Process) {
		p.Hold(1)
		victim.Kill()
	})
	e.Run()
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
	if !victim.Ended() {
		t.Fatal("victim not ended")
	}
	if e.LiveProcesses() != 0 {
		t.Fatalf("live = %d", e.LiveProcesses())
	}
}

func TestKillUnstartedProcess(t *testing.T) {
	e := NewEngine()
	ran := false
	victim := e.SpawnAt("victim", 10, func(p *Process) { ran = true })
	e.Schedule(1, func() { victim.Kill() })
	e.Run()
	if ran {
		t.Fatal("killed-before-start process ran")
	}
	if e.LiveProcesses() != 0 {
		t.Fatal("leak")
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("bad", func(p *Process) {
		p.Hold(1)
		panic("model bug")
	})
	defer func() {
		if r := recover(); r != "model bug" {
			t.Fatalf("recover = %v", r)
		}
	}()
	e.Run()
	t.Fatal("Run returned despite process panic")
}

func TestProcessSpawnsProcess(t *testing.T) {
	e := NewEngine()
	var childAt float64 = -1
	e.Spawn("parent", func(p *Process) {
		p.Hold(2)
		e.Spawn("child", func(c *Process) {
			c.Hold(3)
			childAt = c.Now()
		})
		p.Hold(10)
	})
	e.Run()
	if childAt != 5 {
		t.Fatalf("childAt = %v", childAt)
	}
}

func TestManyProcesses(t *testing.T) {
	e := NewEngine()
	const n = 2000
	done := 0
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("p", func(p *Process) {
			p.Hold(float64(i % 17))
			done++
		})
	}
	e.Run()
	if done != n {
		t.Fatalf("done = %d", done)
	}
	if e.LiveProcesses() != 0 {
		t.Fatalf("leaked %d processes", e.LiveProcesses())
	}
}

func TestProcessAccessors(t *testing.T) {
	e := NewEngine()
	p := e.Spawn("named", func(p *Process) {
		if p.Name() != "named" || p.Engine() != e {
			t.Error("accessors wrong")
		}
	})
	e.Run()
	if !p.Ended() {
		t.Fatal("not ended")
	}
}

func TestEngineCloseReclaims(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEngine()
	res := e.NewResource("r", 1)
	box := e.NewMailbox("m")
	var unwound []string
	spawn := func(name string, delay float64, body func(*Process)) {
		e.SpawnAt(name, delay, func(p *Process) {
			defer func() { unwound = append(unwound, name) }()
			body(p)
			t.Errorf("%s resumed after its block", name)
		})
	}
	spawn("hold", 0, func(p *Process) {
		res.Acquire(p, 1)
		p.Hold(1000)
	})
	spawn("passive", 0, func(p *Process) { p.Passivate() })
	spawn("acquire", 0, func(p *Process) { res.Acquire(p, 1) })
	spawn("recv", 0, func(p *Process) { box.Recv(p) })
	spawn("unstarted", 500, func(p *Process) {})
	e.RunUntil(10)
	if e.LiveProcesses() != 5 {
		t.Fatalf("live before Close = %d, want 5", e.LiveProcesses())
	}
	e.Close()
	if want := []string{"hold", "passive", "acquire", "recv"}; !slices.Equal(unwound, want) {
		t.Fatalf("deferred functions ran as %v, want %v", unwound, want)
	}
	if e.LiveProcesses() != 0 {
		t.Fatalf("live after Close = %d", e.LiveProcesses())
	}
	if n := runtime.NumGoroutine(); n != baseline {
		t.Fatalf("goroutines after Close = %d, baseline %d", n, baseline)
	}
	e.Close()
	if len(unwound) != 4 || e.LiveProcesses() != 0 {
		t.Fatalf("second Close not a no-op: unwound %v, live %d", unwound, e.LiveProcesses())
	}
	// The unstarted process's start event is still queued and must not
	// run its body.
	e.Run()
}

func TestEngineClosePanicsDuringRun(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("Close inside Run did not panic")
			}
		}()
		e.Close()
	})
	e.Run()
}
