package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/distsim"
)

// distSpec is one distsim workload: PHOLD with E5 traffic on two
// loopback-TCP workers, one thread each.
type distSpec struct {
	name    string
	work    int     // synthetic spin iterations per event
	journal bool    // durable control-plane journal at every barrier
	windows float64 // horizon in lookahead windows
}

var (
	distDense   = distSpec{name: "distphold-dense", work: fedWork, windows: 1024}
	distDurable = distSpec{name: "distphold-durable", work: 1000, journal: true, windows: 1024}
)

const distWorkers = 2

func (s distSpec) horizon(o opts) float64 {
	if o.tiny {
		return 64
	}
	return s.windows
}

// cluster is the outcome of one coordinator plus workers run.
type cluster struct {
	setupNs int64 // start to the first window frame written
	wallNs  int64 // first window frame to Serve's return
	events  uint64
	heapMB  float64 // live heap the cluster added
	rt      rtCounters
	perLP   []uint64
	windows uint64
	routed  uint64
	coord   []*connTap // coordinator side, one per accepted connection
	workers []*connTap // worker side, one per dialed connection
	journal bool

	// traced runs only
	snap       distsim.ClusterSnapshot
	execNs     int64
	canceled   uint64
	maxQueue   int
	retransmit uint64
}

// runCluster runs one distributed PHOLD from scratch: listener,
// coordinator, workers, handshake, every window, and the final stats.
func runCluster(spec distSpec, o opts, trace, journal bool, seq int) (*cluster, error) {
	t0 := nowNs()
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("%s: listen: %w", spec.name, err)
	}
	defer base.Close()
	addr := base.Addr().String()
	coordTaps, workerTaps := &tapSet{trace: trace}, &tapSet{trace: trace}

	c := distsim.NewCoordinator(pholdLPs, pholdLookahead, spec.horizon(o), o.seed)
	c.Timeout = 20 * time.Second
	if journal {
		c.JournalPath = filepath.Join(journalDir, fmt.Sprintf("%s-%d-%d.jrnl", spec.name, os.Getpid(), seq))
		if err := os.MkdirAll(journalDir, 0o755); err != nil {
			return nil, err
		}
		if err := os.Remove(c.JournalPath); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		defer os.Remove(c.JournalPath)
	}
	watch := watchUnit()
	var co *distsim.ClusterObs
	if trace {
		// Workers ship their histograms with the final stats frame only,
		// so the per-window frames carry no tracing payload.
		co = c.EnableObservability(1<<30, 16)
	}

	workers := make([]*distsim.Worker, distWorkers)
	per := pholdLPs / distWorkers
	for i := range workers {
		ids := make([]int, per)
		for j := range ids {
			ids[j] = i*per + j
		}
		w := distsim.NewWorker(ids...)
		distsim.InstallPHOLDSkew(w, pholdLPs, pholdJobs, pholdRemote, spec.work, pholdDelay, 0, 1, 0)
		w.Dial = func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return workerTaps.wrap(conn), nil
		}
		// A failed run must end promptly instead of parking workers in
		// reconnect loops.
		w.ConnectRetries = 3
		w.ConnectBackoff = 10 * time.Millisecond
		w.MaxPark = -1
		workers[i] = w
	}
	errs := make(chan error, len(workers))
	for _, w := range workers {
		w := w
		go func() { errs <- w.Run(addr) }()
	}
	serveErr := c.Serve(&tapListener{Listener: base, set: coordTaps}, len(workers))
	end := nowNs()
	base.Close()
	var workerErr error
	for range workers {
		if err := <-errs; err != nil && workerErr == nil {
			workerErr = err
		}
	}
	heapMB, rt := watch.stop() // the coordinator and workers are still reachable
	if serveErr != nil {
		return nil, fmt.Errorf("%s: coordinator: %w", spec.name, serveErr)
	}
	if workerErr != nil {
		return nil, fmt.Errorf("%s: worker: %w", spec.name, workerErr)
	}

	cl := &cluster{
		coord:   coordTaps.list(),
		workers: workerTaps.list(),
		windows: c.Windows,
		routed:  c.EventsRouted,
		heapMB:  heapMB,
		rt:      rt,
		perLP:   make([]uint64, pholdLPs),
		journal: journal,
	}
	first := int64(-1)
	for _, t := range cl.coord {
		if len(t.windowWrites) > 0 && (first < 0 || t.windowWrites[0] < first) {
			first = t.windowWrites[0]
		}
	}
	if first < 0 {
		return nil, fmt.Errorf("%s: no window frame was sent", spec.name)
	}
	cl.setupNs, cl.wallNs = first-t0, end-first
	for _, ws := range c.WorkerStats {
		cl.events += ws.EventsExecuted
		for lp, n := range ws.PerLPCounts {
			if lp < 0 || lp >= pholdLPs {
				return nil, fmt.Errorf("%s: stats for unknown LP %d", spec.name, lp)
			}
			cl.perLP[lp] = n
		}
	}
	if trace {
		cl.snap = co.Snapshot()
		exec, _, _, _ := co.Histograms()
		cl.execNs = exec.Sum()
		cl.retransmit = cl.snap.CoordWire.Retransmits
		for _, w := range workers {
			cl.retransmit += w.WireSnapshot().Retransmits
			for _, lp := range w.LPs() {
				s := lp.E.Stats()
				cl.canceled += s.Canceled
				cl.maxQueue = max(cl.maxQueue, s.MaxQueue)
			}
		}
	}
	return cl, nil
}

// windowTimes returns the host µs between successive window frames
// written on the first coordinator connection: the run's windows.
func (cl *cluster) windowTimes() []float64 {
	ww := cl.coord[0].windowWrites
	us := make([]float64, 0, len(ww))
	for k := 1; k < len(ww); k++ {
		us = append(us, float64(ww[k]-ww[k-1])/1e3)
	}
	return us
}

// perWindow is the run's mean committed events per window frame.
func (cl *cluster) perWindow() float64 {
	return ratio(float64(cl.events), float64(len(cl.coord[0].windowWrites)))
}

// distPhase runs clusters back to back until their timed regions add
// up to seconds. journal picks the journal setting of cluster i.
func distPhase(spec distSpec, o opts, seconds float64, r *report, ref []uint64, trace bool, journal func(i int) bool) (*phase, []*cluster) {
	p := &phase{}
	var runs []*cluster
	deadline := time.Now().Add(time.Duration(3 * seconds * float64(time.Second)))
	for i := 0; p.wallNs < int64(seconds*1e9) && time.Now().Before(deadline); i++ {
		cl, err := runCluster(spec, o, trace, journal(i), i)
		if err != nil {
			r.run(err)
			continue
		}
		r.run(checkPerLP(spec.name, cl.perLP, ref))
		runs = append(runs, cl)
		p.setups = append(p.setups, float64(cl.setupNs)/1e9)
		p.unit(cl.events, cl.wallNs, cl.perWindow(), cl.windowTimes(), cl.heapMB, cl.rt)
	}
	return p, runs
}

func runDistDense(o opts, r *report) error   { return runDist(distDense, o, r) }
func runDistDurable(o opts, r *report) error { return runDist(distDurable, o, r) }

func runDist(spec distSpec, o opts, r *report) error {
	ref := pholdReference(o.seed, spec.horizon(o))
	always := func(int) bool { return spec.journal }
	if !o.trace {
		p, _ := distPhase(spec, o, o.seconds, r, ref, false, always)
		p.endToEnd(r)
		return nil
	}
	plain, plainRuns := distPhase(spec, o, o.seconds/2, r, ref, false, always)
	// A durable workload alternates traced runs with the journal on and
	// off, so the journal's share of the coordinator turnaround is
	// measured on identical traffic.
	alternate := func(i int) bool { return spec.journal && i%2 == 0 }
	_, tracedRuns := distPhase(spec, o, o.seconds/2, r, ref, true, alternate)
	plain.runtimeLayer(r)

	var frames, bytes int
	var windows uint64
	for _, cl := range plainRuns {
		windows += cl.windows
		for _, t := range append(cl.coord, cl.workers...) {
			frames += t.writes
			bytes += t.writeBytes
		}
	}
	r.set("distsim.link.frames_per_window", ratio(float64(frames), float64(windows)))
	r.set("distsim.link.bytes_per_window", ratio(float64(bytes), float64(windows)))

	var on, off []*cluster
	for _, cl := range tracedRuns {
		if cl.journal == spec.journal {
			on = append(on, cl)
		} else {
			off = append(off, cl)
		}
	}
	traced := &phase{}
	for _, cl := range on {
		traced.unit(cl.events, cl.wallNs, cl.perWindow(), cl.windowTimes(), cl.heapMB, cl.rt)
	}
	overhead(r, plain, traced)
	d := distBreakdown(on)
	d.report(r)
	if spec.journal && len(off) > 0 {
		r.set("distsim.journal.turnaround_delta_us", d.turnaround-distBreakdown(off).turnaround)
	}
	return nil
}

// distLayers is the per-layer view of a set of traced clusters.
type distLayers struct {
	events, windows, routed, canceled, retransmits uint64
	journalRecords, journalBytes                   uint64
	maxQueue                                       int
	execNs, busyNs                                 float64
	busy, writes, turnaround, barrier              float64 // p50s in µs
}

func distBreakdown(runs []*cluster) distLayers {
	var d distLayers
	var busy, writes, turnaround, barrier []float64
	for _, cl := range runs {
		d.events += cl.events
		d.windows += cl.windows
		d.routed += cl.routed
		d.canceled += cl.canceled
		d.retransmits += cl.retransmit
		d.maxQueue = max(d.maxQueue, cl.maxQueue)
		d.execNs += float64(cl.execNs)
		d.journalRecords += cl.snap.JournalRecords
		d.journalBytes += cl.snap.JournalBytes
		for _, t := range append(cl.coord, cl.workers...) {
			for _, f := range t.frames {
				if f.write {
					writes = append(writes, float64(f.end-f.start)/1e3)
				}
			}
		}
		// Worker busy: window frame read to done frame written.
		for _, t := range cl.workers {
			win, done := t.times(kindWindow, false), t.times(kindDone, true)
			for i := 0; i < min(len(win), len(done)); i++ {
				ns := float64(done[i] - win[i])
				d.busyNs += ns
				busy = append(busy, ns/1e3)
			}
		}
		// Coordinator: the fan-out of window i starts at its first window
		// write; its barrier ends at the last done frame read.
		var fan, last []int64
		for k, t := range cl.coord {
			win, done := t.times(kindWindow, true), t.times(kindDone, false)
			if k == 0 {
				fan, last = win, make([]int64, len(done))
			}
			n := min(len(fan), len(win), len(last), len(done))
			fan, last = fan[:n], last[:n]
			for i := 0; i < n; i++ {
				fan[i] = min(fan[i], win[i])
				last[i] = max(last[i], done[i])
			}
		}
		for i := range fan {
			barrier = append(barrier, float64(last[i]-fan[i])/1e3)
			if i+1 < len(fan) {
				turnaround = append(turnaround, float64(fan[i+1]-last[i])/1e3)
			}
		}
	}
	d.busy, d.writes = median(busy), median(writes)
	d.turnaround, d.barrier = median(turnaround), median(barrier)
	return d
}

func (d distLayers) report(r *report) {
	w := float64(d.windows)
	r.set("des.events", float64(d.events))
	r.set("des.canceled", float64(d.canceled))
	r.set("eventq.max_queue", float64(d.maxQueue))
	r.set("des.cb_ns_per_event", ratio(d.execNs, float64(d.events)))
	r.set("des.dispatch_ns_per_event", ratio(d.busyNs-d.execNs, float64(d.events)))
	r.set("distsim.worker.busy_us_p50", d.busy)
	r.set("distsim.worker.events_per_window", ratio(float64(d.events), w*distWorkers))
	r.set("distsim.link.write_us_p50", d.writes)
	r.set("distsim.link.retransmits", float64(d.retransmits))
	r.set("distsim.coord.turnaround_us_p50", d.turnaround)
	r.set("distsim.coord.barrier_wait_us_p50", d.barrier)
	r.set("distsim.coord.routed_per_window", ratio(float64(d.routed), w))
	r.set("distsim.journal.records", float64(d.journalRecords))
	r.set("distsim.journal.bytes_per_window", ratio(float64(d.journalBytes), w))
}
