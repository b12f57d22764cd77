package des

import (
	"fmt"
	"testing"

	"repro/internal/eventq"
	"repro/internal/obs"
)

// BenchmarkScheduleExecute measures raw event throughput per FEL kind:
// the cost of one schedule+execute cycle at a steady queue population.
func BenchmarkScheduleExecute(b *testing.B) {
	for _, k := range eventq.Kinds() {
		b.Run(string(k), func(b *testing.B) {
			e := NewEngine(WithQueue(k))
			src := e.Stream("bench")
			const population = 1024
			var pump func()
			count := 0
			pump = func() {
				count++
				if count < b.N {
					e.Schedule(src.Exp(1), pump)
				}
			}
			for i := 0; i < population && i < b.N; i++ {
				e.Schedule(src.Exp(1), pump)
			}
			b.ResetTimer()
			e.Run()
		})
	}
}

// BenchmarkScheduleExecuteTraced is BenchmarkScheduleExecute with the
// full observability sink attached (ring recorder + histograms): the
// steady-state recording path must be allocation-free, so the cost of
// tracing is bounded by timestamping, not by GC pressure.
func BenchmarkScheduleExecuteTraced(b *testing.B) {
	for _, k := range []eventq.Kind{eventq.KindHeap} {
		b.Run(string(k), func(b *testing.B) {
			rec := obs.NewRecorder(1 << 14)
			met := &obs.Metrics{}
			e := NewEngine(WithQueue(k), WithObserver(Observer{Recorder: rec, Metrics: met}))
			src := e.Stream("bench")
			const population = 1024
			var pump func()
			count := 0
			pump = func() {
				count++
				if count < b.N {
					e.Schedule(src.Exp(1), pump)
				}
			}
			for i := 0; i < population && i < b.N; i++ {
				e.Schedule(src.Exp(1), pump)
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}

// BenchmarkProcessContextSwitch measures one Hold round trip: a
// coroutine switch out of the process, the wake event, and a switch
// back in. It is the handover cost E4's mapping comparison is built on.
func BenchmarkProcessContextSwitch(b *testing.B) {
	e := NewEngine()
	e.Spawn("bench", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Hold(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkResourceAcquireRelease measures the synchronization
// primitive under contention.
func BenchmarkResourceAcquireRelease(b *testing.B) {
	for _, procs := range []int{1, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			e := NewEngine()
			res := e.NewResource("r", 1)
			per := b.N/procs + 1
			for i := 0; i < procs; i++ {
				e.Spawn("w", func(p *Process) {
					for j := 0; j < per; j++ {
						res.Acquire(p, 1)
						p.Hold(0.001)
						res.Release(1)
					}
				})
			}
			b.ResetTimer()
			e.Run()
		})
	}
}

// BenchmarkCancel measures tombstone-based cancellation.
func BenchmarkCancel(b *testing.B) {
	e := NewEngine()
	timers := make([]Timer, b.N)
	for i := range timers {
		timers[i] = e.Schedule(float64(i)+1, func() {})
	}
	b.ResetTimer()
	for i := range timers {
		timers[i].Cancel()
	}
	e.Run()
}
