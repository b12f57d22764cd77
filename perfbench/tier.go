package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/simulators/monarc"
)

// tierLinks is the E7 sweep of T0→T1 uplink capacities in Gbps.
var tierLinks = []float64{0.622, 1.25, 2.5, 10, 30, 40}

// tierSize is the scenario one sweep point simulates: RAW files
// produced at T0 and the simulated horizon in seconds. Production is a
// Poisson process, so whether a link keeps up is itself random; at
// this size C6 held in every one of 22,000 scenarios tried (README.md).
func tierSize(tiny bool) (runs int, horizon float64) {
	if tiny {
		return 6, 120
	}
	return 9, 350
}

// tierScenarios is how many scenarios one run sweeps, each with its
// own seed derived from the run's. A run's figures then average over
// many inputs instead of hinging on one, and one counting pass covers
// every later pass over the same scenarios.
const tierScenarios = 64

func tierSeeds(seed uint64) []uint64 {
	seeds := make([]uint64, tierScenarios)
	for i := range seeds {
		seeds[i] = seed*1_000_003 + uint64(i)
	}
	return seeds
}

func tierSweep(seed uint64, tiny bool) []monarc.TierStudyPoint {
	runs, horizon := tierSize(tiny)
	return monarc.RunTierStudy(seed, tierLinks, runs, horizon)
}

// checkTierPoint is the C6 check for one sweep point: the links up to
// 2.5 Gbps cannot keep up with production and the links from 10 Gbps
// can. Every sweep must also reproduce the counting sweep of its seed
// exactly.
func checkTierPoint(p, ref monarc.TierStudyPoint) error {
	if want := p.LinkGbps >= 10; p.Sufficient != want {
		return fmt.Errorf("tier-study: %.3g Gbps sufficient=%v, C6 wants %v", p.LinkGbps, p.Sufficient, want)
	}
	if p != ref {
		return fmt.Errorf("tier-study: %.3g Gbps gave %+v, counting sweep gave %+v", p.LinkGbps, p, ref)
	}
	return nil
}

// desTrace is the traced sweep's view of the engines: every engine the
// study builds shares one span ring, drained from the engine's own
// hook before it can wrap, so each callback is timed exactly once.
type desTrace struct {
	rec       *obs.Recorder
	Events    uint64
	Canceled  uint64
	MaxQueue  int
	CbNs      int64
	NetEvents uint64
	NetCbNs   int64
}

const desTraceCap = 1 << 14

func (t *desTrace) hook(ev obs.Event) {
	t.MaxQueue = max(t.MaxQueue, ev.QueueLen)
	if t.rec.Len() >= desTraceCap/2 {
		t.drain()
	}
}

func (t *desTrace) drain() {
	for _, s := range t.rec.Spans() {
		switch s.Kind {
		case obs.KindExec:
			t.Events++
			t.CbNs += s.Dur
			if strings.HasPrefix(s.Label, "net:") {
				t.NetEvents++
				t.NetCbNs += s.Dur
			}
		case obs.KindCancel:
			t.Canceled++
		}
	}
	t.rec.Reset()
}

func (t *desTrace) add(o desTrace) {
	t.Events += o.Events
	t.Canceled += o.Canceled
	t.MaxQueue = max(t.MaxQueue, o.MaxQueue)
	t.CbNs += o.CbNs
	t.NetEvents += o.NetEvents
	t.NetCbNs += o.NetCbNs
}

// Tier child modes: count commits each sweep's events through a
// hook-only observer (no timing); time runs the sweeps unobserved
// inside a timed region; trace runs them with every engine traced.
const (
	modeCount = "count"
	modeTime  = "time"
	modeTrace = "trace"
)

type tierReq struct {
	Mode  string
	Seeds []uint64
	Tiny  bool
}

type tierSweepOut struct {
	Events uint64
	WallNs int64
	Points []monarc.TierStudyPoint
}

type tierResp struct {
	Sweeps []tierSweepOut
	HeapMB float64
	RT     rtCounters
	Trace  desTrace
}

// tierChild runs one pass of sweeps.
func tierChild(req tierReq) tierResp {
	var resp tierResp
	watch := watchUnit()
	for _, seed := range req.Seeds {
		var out tierSweepOut
		t0 := time.Now()
		switch req.Mode {
		case modeCount:
			des.SetDefaultObserver(&des.Observer{Hook: func(obs.Event) { out.Events++ }})
			out.Points = tierSweep(seed, req.Tiny)
		case modeTrace:
			t := &desTrace{rec: obs.NewRecorder(desTraceCap)}
			des.SetDefaultObserver(&des.Observer{Hook: t.hook, Recorder: t.rec})
			out.Points = tierSweep(seed, req.Tiny)
			t.drain()
			out.Events = t.Events
			resp.Trace.add(*t)
		default:
			out.Points = tierSweep(seed, req.Tiny)
		}
		des.SetDefaultObserver(nil)
		out.WallNs = time.Since(t0).Nanoseconds()
		resp.Sweeps = append(resp.Sweeps, out)
	}
	resp.HeapMB, resp.RT = watch.stop()
	return resp
}

// childMain serves one tier child request on stdin/stdout.
func childMain() error {
	var req tierReq
	if err := json.NewDecoder(os.Stdin).Decode(&req); err != nil {
		return fmt.Errorf("child request: %w", err)
	}
	return json.NewEncoder(os.Stdout).Encode(tierChild(req))
}

// spawnTier runs a pass in a fresh child process: this executable,
// started with --child.
func spawnTier(req tierReq) (tierResp, error) {
	exe, err := os.Executable()
	if err != nil {
		return tierResp{}, err
	}
	in, err := json.Marshal(req)
	if err != nil {
		return tierResp{}, err
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, "--child")
	cmd.Stdin, cmd.Stdout, cmd.Stderr = bytes.NewReader(in), &out, os.Stderr
	// The child dies with this process, even when the watchdog ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return tierResp{}, fmt.Errorf("tier-study child: %w", err)
	}
	var resp tierResp
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		return tierResp{}, fmt.Errorf("tier-study child output: %w", err)
	}
	if len(resp.Sweeps) != len(req.Seeds) {
		return tierResp{}, fmt.Errorf("tier-study child ran %d of %d sweeps", len(resp.Sweeps), len(req.Seeds))
	}
	return resp, nil
}

// tierPhase sweeps the run's scenarios pass after pass until the timed
// sweeps add up to seconds, checking every sweep against the counting
// pass of the same seeds. Each pass runs in its own child process: the
// study leaves the processes still blocked at the horizon parked on
// their goroutines, so a process's memory grows with every sweep, and
// a fixed amount of work per process keeps heap_peak_mb the peak of
// one pass rather than of however many sweeps fit in the run.
func tierPhase(o opts, mode string, seconds float64, ref tierResp, r *report, tr *desTrace) (*phase, error) {
	p := &phase{}
	seeds := tierSeeds(o.seed)
	times := make([][]float64, len(seeds)) // µs per sweep of each scenario, one per pass
	for p.wallNs < int64(seconds*1e9) {
		got, err := spawnTier(tierReq{Mode: mode, Seeds: seeds, Tiny: o.tiny})
		if err != nil {
			return nil, err
		}
		for i, sw := range got.Sweeps {
			want := ref.Sweeps[i]
			if len(sw.Points) != len(tierLinks) {
				return nil, fmt.Errorf("tier-study: sweep of seed %d has %d points", seeds[i], len(sw.Points))
			}
			for k := range sw.Points {
				r.run(checkTierPoint(sw.Points[k], want.Points[k]))
			}
			if mode == modeTrace && sw.Events != want.Events {
				r.run(fmt.Errorf("tier-study: traced sweep of seed %d committed %d events, untraced %d", seeds[i], sw.Events, want.Events))
			}
			p.events += want.Events
			p.wallNs += sw.WallNs
			times[i] = append(times[i], float64(sw.WallNs)/1e3)
		}
		p.heaps = append(p.heaps, got.HeapMB)
		p.rt = p.rt.add(got.RT)
		if tr != nil {
			tr.add(got.Trace)
		}
	}
	// A scenario's sweep time is its median over the passes, so a burst
	// of interference during one pass does not reach the result; the
	// rate and the window quantiles are taken across the scenarios.
	typical := make([]float64, len(seeds))
	var events uint64
	var us float64
	for i, ts := range times {
		typical[i] = median(ts)
		us += typical[i]
		events += ref.Sweeps[i].Events
	}
	p.rates = []float64{ratio(float64(events), us/1e6)}
	p.windows = typical
	return p, nil
}

// runTierStudy is the paper's C6 experiment on the sequential kernel:
// the six-point MONARC T0/T1 link sweep. Its "window" is one whole
// sweep, the unit a user of the study waits on.
func runTierStudy(o opts, r *report) error {
	// Set-up is model construction: a sweep whose horizon ends right
	// after time zero, repeated so the median is steady.
	runs, _ := tierSize(o.tiny)
	var setups []float64
	for i := 0; i < 4; i++ {
		for _, seed := range tierSeeds(o.seed) {
			t0 := time.Now()
			monarc.RunTierStudy(seed, tierLinks, runs, 1e-9)
			setups = append(setups, time.Since(t0).Seconds())
		}
	}
	ref, err := spawnTier(tierReq{Mode: modeCount, Seeds: tierSeeds(o.seed), Tiny: o.tiny})
	if err != nil {
		return err
	}
	var perPass uint64
	for _, sw := range ref.Sweeps {
		if len(sw.Points) != len(tierLinks) {
			return fmt.Errorf("tier-study: counting sweep has %d points", len(sw.Points))
		}
		perPass += sw.Events
	}
	r.notef("tier-study: %d scenarios, %d events per pass", tierScenarios, perPass)
	if !o.trace {
		p, err := tierPhase(o, modeTime, o.seconds, ref, r, nil)
		if err != nil {
			return err
		}
		p.setups = setups
		p.endToEnd(r)
		return nil
	}
	plain, err := tierPhase(o, modeTime, o.seconds/2, ref, r, nil)
	if err != nil {
		return err
	}
	t := &desTrace{}
	traced, err := tierPhase(o, modeTrace, o.seconds/2, ref, r, t)
	if err != nil {
		return err
	}
	plain.runtimeLayer(r)
	overhead(r, plain, traced)
	r.set("des.events", float64(t.Events))
	r.set("des.canceled", float64(t.Canceled))
	r.set("eventq.max_queue", float64(t.MaxQueue))
	r.set("des.cb_ns_per_event", ratio(float64(t.CbNs), float64(t.Events)))
	r.set("des.dispatch_ns_per_event", ratio(float64(traced.wallNs-t.CbNs), float64(t.Events)))
	r.set("netsim.flow_cb_ns_per_event", ratio(float64(t.NetCbNs), float64(t.NetEvents)))
	r.set("netsim.flow_cb_share", ratio(float64(t.NetCbNs), float64(t.CbNs)))
	return nil
}
