package netsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
)

// referenceRates is the map-based progressive filling that maxMin
// replaced, kept as the oracle the differential test compares against.
// It returns each active flow's max-min rate and touches no state.
func referenceRates(n *Network) map[*Flow]float64 {
	rate := make(map[*Flow]float64, len(n.flows))
	residual := make(map[*Link]float64)
	count := make(map[*Link]int)
	for _, f := range n.flows {
		for _, l := range f.route {
			if _, ok := residual[l]; !ok {
				residual[l] = l.usable() * n.Efficiency
			}
			count[l]++
		}
	}
	unfixed := make(map[*Flow]struct{}, len(n.flows))
	for _, f := range n.flows {
		unfixed[f] = struct{}{}
		rate[f] = 0
	}
	for len(unfixed) > 0 {
		var bottleneck *Link
		best := math.Inf(1)
		for l, c := range count {
			if c == 0 {
				continue
			}
			share := residual[l] / float64(c)
			if share < best || (share == best && (bottleneck == nil || l.ID < bottleneck.ID)) {
				best = share
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break
		}
		for f := range unfixed {
			crosses := false
			for _, l := range f.route {
				if l == bottleneck {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			rate[f] = best
			delete(unfixed, f)
			for _, l := range f.route {
				residual[l] -= best
				if residual[l] < 0 {
					residual[l] = 0
				}
				count[l]--
			}
		}
	}
	return rate
}

// randomFabric builds a connected random topology whose capacities
// come from a small set, so that equal shares on different links are
// common, and whose links are sometimes fully loaded in the background
// (BackgroundLoad 1), so that some flows stall.
func randomFabric(src *rng.Source) (*Network, []*Node) {
	topo := NewTopology()
	nodes := make([]*Node, 3+src.Intn(8))
	for i := range nodes {
		nodes[i] = topo.AddNode(fmt.Sprintf("n%d", i))
	}
	caps := []float64{100, 200, 300, 100 + 1000*src.Float64()}
	connect := func(a, b *Node) {
		ab, ba := topo.Connect(a, b, caps[src.Intn(len(caps))], 0)
		for _, l := range []*Link{ab, ba} {
			switch src.Intn(8) {
			case 0:
				l.BackgroundLoad = 1
			case 1:
				l.BackgroundLoad = 0.5
			}
		}
	}
	for i := 1; i < len(nodes); i++ {
		connect(nodes[src.Intn(i)], nodes[i])
	}
	for k := src.Intn(len(nodes)); k > 0; k-- {
		a, b := src.Intn(len(nodes)), src.Intn(len(nodes))
		if a != b {
			connect(nodes[a], nodes[b])
		}
	}
	net := NewNetwork(des.NewEngine(), topo)
	if src.Intn(2) == 0 {
		net.Efficiency = 0.8
	}
	return net, nodes
}

// TestRebalanceMatchesReference checks maxMin against the map-based
// oracle bit for bit over seeded random fabrics and flow sets, and
// again after flows leave, so the reused scratch state is exercised.
func TestRebalanceMatchesReference(t *testing.T) {
	stalled, tied := 0, 0
	for seed := uint64(1); seed <= 300; seed++ {
		src := rng.New(seed)
		net, nodes := randomFabric(src)
		for k := 1 + src.Intn(24); k > 0; k-- {
			a, b := nodes[src.Intn(len(nodes))], nodes[src.Intn(len(nodes))]
			if a == b {
				continue
			}
			net.flows = append(net.flows, &Flow{Src: a, Dst: b, route: net.topo.Route(a, b)})
		}
		for round := 0; len(net.flows) > 0; round++ {
			want := referenceRates(net)
			net.maxMin()
			seen := map[uint64]bool{}
			for i, f := range net.flows {
				if math.Float64bits(f.rate) != math.Float64bits(want[f]) {
					t.Fatalf("seed %d round %d flow %d (%s->%s): rate %v, reference %v",
						seed, round, i, f.Src.Name, f.Dst.Name, f.rate, want[f])
				}
				if f.rate == 0 {
					stalled++
				} else if seen[math.Float64bits(f.rate)] {
					tied++
				}
				seen[math.Float64bits(f.rate)] = true
			}
			// Drop a random flow and rebalance what is left.
			i := src.Intn(len(net.flows))
			net.flows = append(net.flows[:i], net.flows[i+1:]...)
		}
	}
	if stalled == 0 || tied == 0 {
		t.Fatalf("matrix lacks coverage: %d stalled flows, %d flows sharing a rate", stalled, tied)
	}
}

// sharedUplink builds the tier-study shape: one uplink from T0 to a
// WAN router, fanned out over fat tail circuits to four T1s, with the
// given number of active flows spread across the T1s.
func sharedUplink(flows int) *Network {
	topo := NewTopology()
	t0, wan := topo.AddNode("T0"), topo.AddNode("WAN")
	topo.Connect(t0, wan, 2.5e9/8, 0.05)
	var t1s []*Node
	for i := 0; i < 4; i++ {
		t1 := topo.AddNode(fmt.Sprintf("T1.%d", i))
		topo.Connect(wan, t1, 100e9/8, 0.01)
		t1s = append(t1s, t1)
	}
	net := NewNetwork(des.NewEngine(), topo)
	for i := 0; i < flows; i++ {
		dst := t1s[i%len(t1s)]
		net.flows = append(net.flows, &Flow{Src: t0, Dst: dst, route: topo.Route(t0, dst)})
	}
	return net
}

func TestRebalanceSteadyStateAllocs(t *testing.T) {
	net := sharedUplink(36)
	net.maxMin() // grows the scratch slices
	if allocs := testing.AllocsPerRun(100, net.maxMin); allocs != 0 {
		t.Fatalf("maxMin allocates %v times per call in steady state", allocs)
	}
}

// BenchmarkRebalance measures one max-min recomputation on the
// tier-study shape. The completion events rebalance reschedules
// afterwards are the engine's schedule path, measured by
// BenchmarkScheduleExecute in package des.
func BenchmarkRebalance(b *testing.B) {
	for _, flows := range []int{4, 36, 256} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			net := sharedUplink(flows)
			net.maxMin()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.maxMin()
			}
		})
	}
}
