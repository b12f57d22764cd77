package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/parsim"
)

// PHOLD traffic shared by the federation and distsim workloads: the E5
// shape of 8 LPs with 16 jobs each, a 0.2 chance that a job hops to
// another LP, and a lookahead of 1.
const (
	pholdLPs       = 8
	pholdJobs      = 16
	pholdRemote    = 0.2
	pholdLookahead = 1.0
	pholdDelay     = 4 // mean event spacing in lookaheads (parsim.NewPHOLD's)
)

// pholdReference returns the per-LP event counts of a single-process,
// single-worker federation with the same seed and horizon. Counts do
// not depend on the synthetic work, so the reference runs without it.
func pholdReference(seed uint64, horizon float64) []uint64 {
	ph := parsim.NewPHOLD(pholdLPs, 1, pholdLookahead, pholdJobs, pholdRemote, 0, seed)
	ph.Run(horizon)
	return ph.PerLPEvents()
}

func checkPerLP(name string, got, want []uint64) error {
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s: per-LP events %v, single-process reference %v", name, got, want)
	}
	return nil
}

// Federation sizing: each run covers fedHorizon lookahead windows,
// timed in slices of fedSlice windows. Run continues from the last
// window barrier, so slicing leaves the window lattice and the results
// unchanged; it only adds one pool start per slice.
const (
	fedWorkers = 2
	fedWork    = 100
	fedSlice   = 32
)

func fedHorizon(o opts) float64 {
	if o.tiny {
		return 2 * fedSlice
	}
	return 32 * fedSlice
}

// fedTrace accumulates the federation's own observability over the
// traced runs.
type fedTrace struct {
	windows, idleSkips, msgs  uint64
	events, canceled, execNs  uint64
	maxQueue                  int
	wallNs, maxBusyNs, busyNs float64
	barrier                   obs.Histogram
	utilMin                   float64
}

func (t *fedTrace) add(ph *parsim.PHOLD) {
	s := ph.Fed.Snapshot()
	t.windows += s.Windows
	t.idleSkips += s.IdleSkips
	for i, lp := range s.LPs {
		t.events += lp.Executed
		t.canceled += lp.Canceled
		t.maxQueue = max(t.maxQueue, lp.MaxQueue)
		t.execNs += uint64(lp.Exec.Sum())
		t.msgs += ph.Fed.LP(i).Sent()
	}
	t.barrier.Merge(s.BarrierWait)
	wall := float64(s.WindowWall.Sum())
	t.wallNs += wall
	var maxBusy float64
	for _, u := range s.Utilization {
		maxBusy = max(maxBusy, u*wall)
		t.busyNs += u * wall
		if t.utilMin == 0 || u < t.utilMin {
			t.utilMin = u
		}
	}
	t.maxBusyNs += maxBusy
}

func (t *fedTrace) report(r *report) {
	w := float64(t.windows)
	r.set("parsim.windows", w)
	r.set("parsim.idle_skips", float64(t.idleSkips))
	r.set("parsim.msgs_per_window", ratio(float64(t.msgs), w))
	r.set("parsim.exec_ns_per_event", ratio(float64(t.execNs), float64(t.events)))
	r.set("parsim.deliver_ns_per_window", ratio(t.wallNs-t.maxBusyNs, w))
	r.set("pool.barrier_wait_ns_p50", t.barrier.Quantile(0.5))
	r.set("pool.utilization_min", t.utilMin)
	r.set("des.events", float64(t.events))
	r.set("des.canceled", float64(t.canceled))
	r.set("eventq.max_queue", float64(t.maxQueue))
	r.set("des.cb_ns_per_event", ratio(float64(t.execNs), float64(t.events)))
	r.set("des.dispatch_ns_per_event", ratio(t.busyNs-float64(t.execNs), float64(t.events)))
}

// fedPhase runs federations back to back until the phase has lasted
// seconds. Each run's set-up is the model build; its windows are timed
// slice by slice.
func fedPhase(o opts, seconds float64, r *report, ref []uint64, tr *fedTrace) *phase {
	p := &phase{}
	horizon := fedHorizon(o)
	for p.wallNs < int64(seconds*1e9) {
		watch := watchUnit()
		t0 := time.Now()
		ph := parsim.NewPHOLD(pholdLPs, fedWorkers, pholdLookahead, pholdJobs, pholdRemote, fedWork, o.seed)
		if tr != nil {
			ph.Fed.EnableObservability(64)
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
		var wallNs int64
		var windows []float64
		for end := float64(fedSlice); end <= horizon; end += fedSlice {
			s0 := time.Now()
			ph.Fed.Run(end)
			dt := time.Since(s0).Nanoseconds()
			wallNs += dt
			windows = append(windows, float64(dt)/1e3/fedSlice)
		}
		heapMB, rt := watch.stop()
		p.unit(ph.TotalEvents(), wallNs, float64(ph.TotalEvents())/(horizon/pholdLookahead), windows, heapMB, rt)
		if tr != nil {
			tr.add(ph)
		}
		r.run(checkPerLP("phold-fed", ph.PerLPEvents(), ref))
	}
	return p
}

// runPholdFed is the in-process conservative federation: parsim PHOLD
// with E5 traffic on a two-worker pool.
func runPholdFed(o opts, r *report) error {
	ref := pholdReference(o.seed, fedHorizon(o))
	if !o.trace {
		fedPhase(o, o.seconds, r, ref, nil).endToEnd(r)
		return nil
	}
	plain := fedPhase(o, o.seconds/2, r, ref, nil)
	tr := &fedTrace{}
	traced := fedPhase(o, o.seconds/2, r, ref, tr)
	plain.runtimeLayer(r)
	overhead(r, plain, traced)
	tr.report(r)
	return nil
}
