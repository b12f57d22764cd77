package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0, so a layer a workload bypasses
// reports 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// unitWatch measures one unit from the runtime's side: the runtime
// counters it accumulates, and the live heap it adds, which is the
// largest live heap the collector saw while the unit ran less the live
// heap when it started. The benchmark's own samples, which grow through
// a run, are part of that base and do not count. A finalizer that
// re-arms itself runs once after every GC cycle and reads the runtime's
// own figure, so nothing polls. The watch forces a cycle at the start
// and one at the stop, outside the counters, so a unit that allocates
// too little to trigger the collector still reports the heap its model
// holds.
type unitWatch struct {
	mu      sync.Mutex
	base    uint64
	peak    uint64
	stopped bool
	rt      rtCounters
}

const heapLive = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: heapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcSentinel is allocated only to be collected. It holds a pointer so it
// is never a tiny allocation, whose finalizer may not run.
type gcSentinel struct{ _ *byte }

func watchUnit() *unitWatch {
	runtime.GC()
	w := &unitWatch{base: liveHeap(), rt: readRuntime()}
	w.arm()
	return w
}

func (w *unitWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if !w.stopped {
			w.peak = max(w.peak, liveHeap())
			w.arm()
		}
	})
}

// stop ends the watch and returns the live heap the unit added, in MB,
// and the runtime counters it accumulated. Call it after the unit's
// timed region, while its model is still reachable.
func (w *unitWatch) stop() (heapMB float64, rt rtCounters) {
	rt = readRuntime().sub(w.rt)
	runtime.GC()
	w.mu.Lock()
	defer w.mu.Unlock()
	w.peak = max(w.peak, liveHeap())
	w.stopped = true
	return float64(w.peak-min(w.peak, w.base)) / 1e6, rt
}

// rtCounters is a snapshot of the runtime counters behind the
// runtime.* layer metrics.
type rtCounters struct {
	AllocBytes uint64
	GCCycles   uint64
	GCCPU      float64
	TotalCPU   float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtCounters{
		AllocBytes: s[0].Value.Uint64(),
		GCCycles:   s[1].Value.Uint64(),
		GCCPU:      s[2].Value.Float64(),
		TotalCPU:   s[3].Value.Float64(),
	}
}

// sub returns the counters accumulated between o and r.
func (r rtCounters) sub(o rtCounters) rtCounters {
	return rtCounters{
		AllocBytes: r.AllocBytes - o.AllocBytes,
		GCCycles:   r.GCCycles - o.GCCycles,
		GCCPU:      r.GCCPU - o.GCCPU,
		TotalCPU:   r.TotalCPU - o.TotalCPU,
	}
}

// add returns the sum of two sets of accumulated counters.
func (r rtCounters) add(o rtCounters) rtCounters {
	return rtCounters{
		AllocBytes: r.AllocBytes + o.AllocBytes,
		GCCycles:   r.GCCycles + o.GCCycles,
		GCCPU:      r.GCCPU + o.GCCPU,
		TotalCPU:   r.TotalCPU + o.TotalCPU,
	}
}

// phase accumulates one timed region made of many repetitions of a
// workload's unit (a cluster run, a federation run, a pass of sweeps).
//
// Throughput is taken window by window: each window's rate is its
// unit's mean events per window over the window's host time, and the
// median over every window of the phase is reported. On the 2-vCPU VM
// the benchmark was sized on, the hypervisor takes CPU time in bursts
// of milliseconds (README.md, Steadiness); a mean over the timed region
// takes every burst in, and moved by a third between runs of the same
// code, while the typical window does not. The mean is printed as a note. Window
// quantiles are likewise taken over the windows of every unit
// together, and the heap figure is the median unit's peak.
type phase struct {
	events  uint64
	wallNs  int64
	rates   []float64 // events per host second, per window
	windows []float64 // host µs, per window
	heaps   []float64 // peak live heap MB, per unit
	setups  []float64 // seconds per set-up
	rt      rtCounters
}

// unit records one repetition: its committed events, timed host
// nanoseconds, mean events per window, the host µs of each of its
// windows, the live heap it added in MB and its runtime counters.
func (p *phase) unit(events uint64, wallNs int64, perWindow float64, windows []float64, heapMB float64, rt rtCounters) {
	p.events += events
	p.wallNs += wallNs
	p.rt = p.rt.add(rt)
	for _, us := range windows {
		p.rates = append(p.rates, ratio(perWindow, us/1e6))
	}
	p.windows = append(p.windows, windows...)
	p.heaps = append(p.heaps, heapMB)
}

func (p *phase) eventsPerSec() float64 { return median(p.rates) }

// endToEnd fills the end-to-end metrics of an untraced phase.
func (p *phase) endToEnd(r *report) {
	r.notef("timed region: %d events in %.3f s, mean %.0f events/s", p.events, float64(p.wallNs)/1e9, ratio(float64(p.events), float64(p.wallNs)/1e9))
	r.set("events_per_s", p.eventsPerSec())
	r.set("window_us_p50", quantile(p.windows, 0.5))
	r.set("window_us_p90", quantile(p.windows, 0.9))
	r.set("setup_s", median(p.setups))
	r.set("heap_peak_mb", median(p.heaps))
}

// runtimeLayer fills the runtime.* metrics from an untraced phase: the
// traced phase allocates for its own span buffers, which would count
// against the program. The counters cover the units only, not the
// collections the watches force.
func (p *phase) runtimeLayer(r *report) {
	r.set("runtime.alloc_bytes_per_event", ratio(float64(p.rt.AllocBytes), float64(p.events)))
	r.set("runtime.gc_cycles", float64(p.rt.GCCycles))
	r.set("runtime.gc_cpu_fraction", ratio(p.rt.GCCPU, p.rt.TotalCPU))
}

// overhead fills the tracing-overhead metrics from an untraced and a
// traced phase of the same workload.
func overhead(r *report, plain, traced *phase) {
	r.set("trace.events_per_s", traced.eventsPerSec())
	r.set("trace.overhead_pct", 100*(ratio(plain.eventsPerSec(), traced.eventsPerSec())-1))
}
