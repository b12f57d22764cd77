// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload through the simulators' public APIs for a fixed
// number of seconds, checks the simulated outputs, and prints every
// metric by name with its unit. The last line of standard output is a
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload tier-study --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing attached. With --trace 1 the same workload runs once more
// with tracing attached, and the metrics are the per-layer breakdown
// plus the tracing overhead. README.md describes the workloads and
// what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metricDef names one metric and its unit. The two lists mirror
// BENCHMARK.json; the smoke test checks that they agree.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"events_per_s", "1/s"},
	{"window_us_p50", "us"},
	{"window_us_p90", "us"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"des.events", "count"},
	{"des.canceled", "count"},
	{"eventq.max_queue", "count"},
	{"des.cb_ns_per_event", "ns"},
	{"des.dispatch_ns_per_event", "ns"},
	{"netsim.flow_cb_ns_per_event", "ns"},
	{"netsim.flow_cb_share", "ratio"},
	{"runtime.alloc_bytes_per_event", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"parsim.windows", "count"},
	{"parsim.idle_skips", "count"},
	{"parsim.msgs_per_window", "count"},
	{"parsim.exec_ns_per_event", "ns"},
	{"parsim.deliver_ns_per_window", "ns"},
	{"pool.barrier_wait_ns_p50", "ns"},
	{"pool.utilization_min", "ratio"},
	{"distsim.worker.busy_us_p50", "us"},
	{"distsim.worker.events_per_window", "count"},
	{"distsim.link.frames_per_window", "count"},
	{"distsim.link.bytes_per_window", "B"},
	{"distsim.link.write_us_p50", "us"},
	{"distsim.link.retransmits", "count"},
	{"distsim.coord.turnaround_us_p50", "us"},
	{"distsim.coord.barrier_wait_us_p50", "us"},
	{"distsim.coord.routed_per_window", "count"},
	{"distsim.journal.records", "count"},
	{"distsim.journal.bytes_per_window", "B"},
	{"distsim.journal.turnaround_delta_us", "us"},
	{"trace.events_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// opts is one invocation of a workload.
type opts struct {
	seed    uint64
	seconds float64
	trace   bool
	tiny    bool // smoke-test sizes: seconds-long runs shrink to milliseconds
}

// workload runs for o.seconds and fills r. An error means the workload
// could not run at all; a run whose output is wrong is counted in
// r.failed instead.
type workload func(o opts, r *report) error

// workloads are the benchmark's named workloads; README.md says why
// each was chosen.
var workloads = map[string]workload{
	"tier-study":        runTierStudy,
	"phold-fed":         runPholdFed,
	"distphold-dense":   runDistDense,
	"distphold-durable": runDistDurable,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one invocation's outcome.
type report struct {
	attempted, failed int
	metrics           map[string]metricValue
	notes             io.Writer // human-readable lines before the result
}

func newReport(notes io.Writer) *report {
	return &report{metrics: map[string]metricValue{}, notes: notes}
}

// set records a metric; its unit comes from the metric lists.
func (r *report) set(name string, v float64) {
	for _, l := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range l {
			if d.name == name {
				r.metrics[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("perfbench: unknown metric " + name)
}

// run counts one simulation run and whether its output check passed.
func (r *report) run(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(r.notes, "check failed: %v\n", err)
	}
}

func (r *report) notef(format string, args ...any) { fmt.Fprintf(r.notes, format+"\n", args...) }

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish keeps exactly the metric set the mode prints (zero-filling
// layers the workload bypasses) and builds the result line.
func (r *report) finish(trace bool) result {
	defs := endToEndMetrics
	if trace {
		defs = perLayerMetrics
	}
	out := map[string]metricValue{}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			v = metricValue{Unit: d.unit}
		}
		out[d.name] = v
	}
	return result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: out}
}

// execute runs one workload and returns its result line.
func execute(name string, o opts, notes io.Writer) (result, error) {
	wl, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return result{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
	}
	r := newReport(notes)
	if err := wl(o, r); err != nil {
		return result{}, err
	}
	res := r.finish(o.trace)
	fmt.Fprintf(notes, "ops_failed_ratio %d/%d = %g\n", res.Failed, res.Attempted, ratio(float64(res.Failed), float64(res.Attempted)))
	return res, nil
}

func main() {
	name := flag.String("workload", "", "workload to run: tier-study, phold-fed, distphold-dense or distphold-durable")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "length of the timed region in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	child := flag.Bool("child", false, "internal: run one tier-study batch described on stdin")
	flag.Parse()
	if *child {
		if err := childMain(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	// A wedged run must not outlive the 180 s a caller allows it.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog expired")
		os.Exit(3)
	})
	defer watchdog.Stop()

	host, err := json.Marshal(hostInfo())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("host %s\n", host)
	res, err := execute(*name, opts{seed: *seed, seconds: *seconds, trace: *trace == 1}, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
