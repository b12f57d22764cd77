package monarc

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
)

func TestRunCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runs = 5
	cfg.AnalysisJobs = 10
	// Fast data-taking so production precedes the analysis arrivals.
	cfg.LHC.RunPeriod = 10
	res := Run(cfg)
	if res.RawProduced != 5 {
		t.Fatalf("raw = %d", res.RawProduced)
	}
	if res.Shipped != uint64(5*cfg.T1Count) || res.AgentBacklog != 0 {
		t.Fatalf("shipped=%d backlog=%d", res.Shipped, res.AgentBacklog)
	}
	if res.RecoJobs != 5 {
		t.Fatalf("reco = %d", res.RecoJobs)
	}
	if res.AnalysisJobs == 0 || res.DBQueries == 0 {
		t.Fatalf("analysis=%d dbq=%d", res.AnalysisJobs, res.DBQueries)
	}
	if res.MeanRecoTime <= 0 || res.MeanAnaTime <= 0 || res.WANBytes <= 0 {
		t.Fatalf("res = %+v", res)
	}
	if res.T0Utilization <= 0 || res.T0Utilization > 1 {
		t.Fatalf("utilization = %v", res.T0Utilization)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Runs = 4
	cfg.AnalysisJobs = 8
	a, b := Run(cfg), Run(cfg)
	if a != b {
		t.Fatalf("nondeterministic:\n%+v\n%+v", a, b)
	}
}

func TestTierStudyReproducesPaperClaim(t *testing.T) {
	// The headline result of the Legrand et al. study the paper cites:
	// 2.5 Gbps was insufficient for T0→T1 replication; the upgraded
	// capacity (10-30 Gbps region) sustains it.
	points := RunTierStudy(1, []float64{0.622, 2.5, 10, 30}, 40, 900)
	byLink := map[float64]TierStudyPoint{}
	for _, p := range points {
		byLink[p.LinkGbps] = p
	}
	for _, gbps := range []float64{0.622, 2.5} {
		p := byLink[gbps]
		if p.Sufficient {
			t.Errorf("%v Gbps reported sufficient: %+v", gbps, p)
		}
		if p.Backlog == 0 {
			t.Errorf("%v Gbps shows no backlog: %+v", gbps, p)
		}
	}
	for _, gbps := range []float64{10, 30} {
		p := byLink[gbps]
		if !p.Sufficient {
			t.Errorf("%v Gbps reported insufficient: %+v", gbps, p)
		}
		if p.DeliveredPct != 100 {
			t.Errorf("%v Gbps delivered %.1f%%", gbps, p.DeliveredPct)
		}
	}
	// Monotonicity: delivery percentage must not decrease with
	// capacity, and among fully-delivering links the worst-case delay
	// must shrink as capacity grows.
	for i := 1; i < len(points); i++ {
		if points[i].DeliveredPct < points[i-1].DeliveredPct-1e-9 {
			t.Errorf("delivery%% decreased: %+v -> %+v", points[i-1], points[i])
		}
	}
	if p10, p30 := byLink[10.0], byLink[30.0]; p30.MaxDelay >= p10.MaxDelay {
		t.Errorf("30 Gbps delay %v not below 10 Gbps delay %v", p30.MaxDelay, p10.MaxDelay)
	}
}

func TestSharedVsDedicatedUplink(t *testing.T) {
	// With the same per-link capacity, the shared-uplink topology must
	// be strictly slower to drain than dedicated per-T1 links.
	mk := func(shared bool) Result {
		cfg := DefaultConfig()
		cfg.SharedUplink = shared
		cfg.T2PerT1 = 0
		cfg.AnalysisJobs = 0
		cfg.Runs = 10
		cfg.LHC.RunPeriod = 10
		cfg.T0T1Bps = 2.5e9 / 8
		cfg.Horizon = 2000
		return Run(cfg)
	}
	shared := mk(true)
	dedicated := mk(false)
	if shared.AgentMaxDelay <= dedicated.AgentMaxDelay {
		t.Fatalf("shared %v should exceed dedicated %v", shared.AgentMaxDelay, dedicated.AgentMaxDelay)
	}
}

func TestProfileValid(t *testing.T) {
	p := Profile()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Name != "MONARC 2" || !p.VisualDesign || !p.VisualExec {
		t.Fatalf("profile = %+v", p)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.T1Count = 0
	Run(cfg)
}

// tierGoldenDigest is the FNV-64 digest of the tier study below. It
// pins the sequential kernel's output bit for bit: a change that
// reorders events or perturbs a flow rate changes it.
const tierGoldenDigest uint64 = 0xb85899856e8f3a9e

func TestTierStudyGolden(t *testing.T) {
	h := fnv.New64()
	var buf [8]byte
	fold := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for seed := uint64(1); seed <= 8; seed++ {
		for _, p := range RunTierStudy(seed, []float64{0.622, 1.25, 2.5, 10, 30, 40}, 9, 350) {
			fold(math.Float64bits(p.LinkGbps))
			fold(p.Shipped)
			fold(p.Expected)
			fold(uint64(p.Backlog))
			fold(math.Float64bits(p.MaxDelay))
			fold(math.Float64bits(p.DeliveredPct))
			if p.Sufficient {
				fold(1)
			} else {
				fold(0)
			}
		}
	}
	if got := h.Sum64(); got != tierGoldenDigest {
		t.Fatalf("tier study digest = %#x, want %#x", got, tierGoldenDigest)
	}
}

func TestTierStudyLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for seed := uint64(1); seed <= 3; seed++ {
		RunTierStudy(seed, []float64{0.622, 2.5, 30}, 9, 350)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after the tier study, %d before", n, baseline)
	}
}
