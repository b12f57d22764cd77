package netsim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/des"
)

// Network is the flow-level fabric: every active transfer is a fluid
// flow, and link capacity is divided among competing flows by
// progressive (max-min) fair sharing, recomputed whenever a flow
// starts or finishes. A transfer therefore costs O(changes) events
// rather than O(packets), which is what lets the framework simulate
// wide-area Data Grid traffic at scale.
type Network struct {
	e    *des.Engine
	topo *Topology

	// Efficiency models TCP's inability to saturate a path (slow
	// start, ack clocking): achievable flow rate is capacity times
	// this factor. 1.0 means ideal fluid behavior.
	Efficiency float64

	flows      []*Flow // active flows, in start order (determinism)
	lastUpdate float64

	// Progressive-filling scratch, reused by every rebalance so that it
	// allocates nothing once grown: residual capacity and unfixed-flow
	// count per link, indexed by Link.ID, and the IDs of the links the
	// active flows cross, ascending (the bottleneck tie-break order).
	residual []float64
	count    []int
	touched  []int

	// accounting
	started   uint64
	completed uint64
}

// Flow is one active fluid transfer.
type Flow struct {
	Src, Dst  *Node
	Bytes     float64
	remaining float64
	rate      float64
	route     []*Link
	startTime float64
	doneTime  float64
	done      func()
	timer     des.Timer
	onEnd     func() // the net:flowend callback, built once per flow
	net       *Network
	finished  bool
	fixed     bool // rate settled in the current rebalance
}

// Rate returns the flow's current allocated rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns the bytes not yet delivered (as of the last
// recompute; exact at event boundaries).
func (f *Flow) Remaining() float64 { return f.remaining }

// Finished reports completion.
func (f *Flow) Finished() bool { return f.finished }

// Start returns the simulation time the transfer was initiated.
func (f *Flow) Start() float64 { return f.startTime }

// End returns the completion time (0 until finished).
func (f *Flow) End() float64 { return f.doneTime }

// NewNetwork creates a flow-level fabric over the topology, driven by
// engine e.
func NewNetwork(e *des.Engine, topo *Topology) *Network {
	return &Network{e: e, topo: topo, Efficiency: 1.0}
}

// Topo implements Fabric.
func (n *Network) Topo() *Topology { return n.topo }

// ActiveFlows returns the number of in-progress transfers.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// Completed returns the cumulative number of finished transfers.
func (n *Network) Completed() uint64 { return n.completed }

// Transfer implements Fabric. The transfer experiences the route's
// propagation latency once, then drains at the max-min fair rate.
// Zero-byte transfers complete after the latency alone.
func (n *Network) Transfer(src, dst *Node, bytes float64, done func()) {
	if bytes < 0 || math.IsNaN(bytes) || math.IsInf(bytes, 0) {
		panic(fmt.Sprintf("netsim: Transfer of %v bytes", bytes))
	}
	route := n.topo.Route(src, dst)
	if route == nil {
		panic(fmt.Sprintf("netsim: no route %s -> %s", src.Name, dst.Name))
	}
	latency := 0.0
	for _, l := range route {
		latency += l.Latency
	}
	n.started++
	f := &Flow{
		Src: src, Dst: dst,
		Bytes: bytes, remaining: bytes,
		route: route, startTime: n.e.Now(),
		done: done, net: n,
	}
	if bytes == 0 || len(route) == 0 {
		n.e.ScheduleNamed("net:zero", latency, func() { n.finish(f) })
		return
	}
	f.onEnd = func() {
		n.advance()
		f.remaining = 0
		n.removeFlow(f)
		n.rebalance()
		n.finish(f)
	}
	n.e.ScheduleNamed("net:flowstart", latency, func() {
		n.advance()
		n.flows = append(n.flows, f)
		n.rebalance()
	})
}

// Send implements Fabric: the blocking form for simulated processes.
func (n *Network) Send(p *des.Process, src, dst *Node, bytes float64) {
	doneCh := false
	n.Transfer(src, dst, bytes, func() {
		doneCh = true
		p.Activate()
	})
	for !doneCh {
		p.Passivate()
	}
}

// advance charges every active flow for the bytes moved since the last
// recompute point.
func (n *Network) advance() {
	now := n.e.Now()
	dt := now - n.lastUpdate
	if dt > 0 {
		for _, f := range n.flows {
			moved := f.rate * dt
			f.remaining -= moved
			if f.remaining < 0 {
				f.remaining = 0
			}
			for _, l := range f.route {
				l.bytesCarried += moved
			}
		}
	}
	n.lastUpdate = now
}

// rebalance recomputes max-min fair rates and reschedules completions.
// Must be called with byte accounting already advanced to Now.
func (n *Network) rebalance() {
	n.maxMin()
	// Reschedule completion events in flow-start order, so equal
	// completion instants resolve deterministically. Every flow is
	// rescheduled, changed rate or not: skipping one would renumber
	// the events after it and reorder ties between equal times.
	for _, f := range n.flows {
		f.timer.Cancel()
		f.timer = des.Timer{}
		if f.rate <= 0 {
			continue // stalled: no capacity on some link
		}
		f.timer = n.e.ScheduleNamed("net:flowend", f.remaining/f.rate, f.onEnd)
	}
}

// maxMin sets every active flow's rate to its max-min fair share by
// progressive filling: flows are "fixed" once their bottleneck link
// saturates. It allocates nothing once the scratch slices have grown
// to the topology.
func (n *Network) maxMin() {
	if m := len(n.topo.links); len(n.residual) < m {
		n.residual = make([]float64, m)
		n.count = make([]int, m)
	}
	n.touched = n.touched[:0]
	for _, f := range n.flows {
		for _, l := range f.route {
			if n.count[l.ID] == 0 {
				n.touched = append(n.touched, l.ID)
				n.residual[l.ID] = l.usable() * n.Efficiency
			}
			n.count[l.ID]++
		}
		f.rate = 0
		f.fixed = false
	}
	slices.Sort(n.touched)
	for unfixed := len(n.flows); unfixed > 0; {
		// Find the bottleneck link: minimal residual/count over links
		// with unfixed flows, the lowest ID among equal shares.
		bottleneck := -1
		best := math.Inf(1)
		for _, id := range n.touched {
			c := n.count[id]
			if c == 0 {
				continue
			}
			share := n.residual[id] / float64(c)
			if share < best || (share == best && bottleneck < 0) {
				best = share
				bottleneck = id
			}
		}
		if bottleneck < 0 {
			break
		}
		// Fix every unfixed flow crossing the bottleneck at the share.
		for _, f := range n.flows {
			if f.fixed || !crosses(f.route, bottleneck) {
				continue
			}
			f.rate = best
			f.fixed = true
			unfixed--
			for _, l := range f.route {
				r := n.residual[l.ID] - best
				if r < 0 {
					r = 0
				}
				n.residual[l.ID] = r
				n.count[l.ID]--
			}
		}
	}
	// Leave every count at zero: the next call reads zero as "link not
	// yet touched".
	for _, id := range n.touched {
		n.count[id] = 0
	}
}

// crosses reports whether the route uses the link with the given ID.
func crosses(route []*Link, id int) bool {
	for _, l := range route {
		if l.ID == id {
			return true
		}
	}
	return false
}

func (n *Network) removeFlow(f *Flow) {
	for i, g := range n.flows {
		if g == f {
			n.flows = append(n.flows[:i], n.flows[i+1:]...)
			return
		}
	}
}

func (n *Network) finish(f *Flow) {
	f.finished = true
	f.doneTime = n.e.Now()
	n.completed++
	if f.done != nil {
		f.done()
	}
}

var _ Fabric = (*Network)(nil)
