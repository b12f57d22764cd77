// Package monarc reproduces the design of MONARC 2, whose "simulation
// model is based on the characteristics of the LHC physics
// experiments, and is organized in the form of a hierarchy of
// different sites that are grouped into levels called tiers". MONARC 2
// is "built based on a process oriented approach for discrete event
// simulation ... Threaded objects or 'Active Objects' (having an
// execution thread, program counter, stack...) allow a natural way to
// map the specific behavior of distributed data processing into the
// simulation program."
//
// The personality therefore leans on the framework's Process layer:
// regional centres with CPU farms, database servers and mass storage;
// "Activity" objects generating data-processing jobs; a Job Scheduler
// dispatching them onto CPU units; and the data replication agent of
// the Legrand et al. (2005) T0/T1 study, reproduced by RunTierStudy.
package monarc

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/replication"
	"repro/internal/scheduler"
	"repro/internal/taxonomy"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Config parameterizes a MONARC tier-model run.
type Config struct {
	Seed uint64

	// Tier shape.
	T1Count int
	T2PerT1 int
	T0Spec  topology.SiteSpec
	T1Spec  topology.SiteSpec
	T2Spec  topology.SiteSpec
	T0T1Bps float64 // the famous link under study
	T0T1Lat float64
	T1T2Bps float64
	T1T2Lat float64

	// SharedUplink models the Legrand-study topology: all T0→T1
	// traffic funnels through one WAN uplink of capacity T0T1Bps at
	// the T0 (the 2.5 Gbps CERN link of the study), with fat
	// tail circuits to each T1. When false, each T1 gets its own
	// direct T0 link of that capacity.
	SharedUplink bool

	// Workload.
	LHC          workload.LHCSpec
	Runs         int     // RAW files produced at T0
	AnalysisRate float64 // analysis jobs/second across T1s
	AnalysisJobs int
	Horizon      float64 // stop time (0 = run to completion)
}

// DefaultConfig returns the CMS/ATLAS-like baseline: one T0, several
// T1 regional centres, a handful of T2s per T1.
func DefaultConfig() Config {
	t0 := topology.SiteSpec{
		Cores: 64, CoreSpeed: 2e9, Sharing: 0,
		DiskBytes: 1e15, DiskBps: 1e9, DiskChans: 16,
		DBBytes: 1e14, DBBps: 5e8, DBOH: 0.01, DBWorkers: 8,
		TapeBytes: 1e16, TapeBps: 2e8, TapeMount: 30, TapeDrive: 4,
	}
	t1 := topology.SiteSpec{
		Cores: 32, CoreSpeed: 2e9,
		DiskBytes: 5e14, DiskBps: 5e8, DiskChans: 8,
		DBBytes: 1e13, DBBps: 2e8, DBOH: 0.01, DBWorkers: 4,
	}
	t2 := topology.SiteSpec{
		Cores: 8, CoreSpeed: 2e9,
		DiskBytes: 1e13, DiskBps: 2e8, DiskChans: 4,
	}
	return Config{
		Seed:    1,
		T1Count: 4, T2PerT1: 2,
		T0Spec: t0, T1Spec: t1, T2Spec: t2,
		T0T1Bps: 2.5e9 / 8, T0T1Lat: 0.05, // 2.5 Gbps in bytes/s
		T1T2Bps: 1e9 / 8, T1T2Lat: 0.01,
		LHC:          workload.DefaultLHCSpec(),
		Runs:         20,
		AnalysisRate: 0.05,
		AnalysisJobs: 60,
	}
}

// Result summarizes a tier-model run.
type Result struct {
	RawProduced   int
	Shipped       uint64
	AgentBacklog  int
	AgentMaxDelay float64
	RecoJobs      uint64
	AnalysisJobs  uint64
	MeanRecoTime  float64
	MeanAnaTime   float64
	T0Utilization float64
	WANBytes      float64
	End           float64
	DBQueries     uint64
}

// Run executes the full MONARC scenario: RAW production at T0 with
// replication to T1s, reconstruction at T0, analysis activities at
// the T1 centres reading replicated data from their local stores.
func Run(cfg Config) Result {
	e, grid, sys, agent, recoCluster := build(cfg)
	// Transfers and jobs still blocked at the horizon are reclaimed
	// once the result below has been read.
	defer e.Close()
	src := e.Stream("monarc")

	var recoTime, anaTime metrics.Summary
	var recoJobs, anaJobs uint64

	// RAW production activity at T0: each run produces a RAW file,
	// the agent ships it to every T1, and a reconstruction job is
	// queued at T0 (writing its output to tape).
	t0 := grid.Site("T0")
	prodSrc := e.Stream("lhc-run")
	production := workload.LHCRun(cfg.LHC, prodSrc, func(i int, f *replication.File) {
		agent.Produce(f)
		job := &scheduler.Job{ID: i, Name: "reco", Ops: cfg.LHC.RecoOps()}
		recoCluster.Submit(job, func(j *scheduler.Job) {
			recoJobs++
			recoTime.Observe(j.ResponseTime())
			// Archive the derived ESD to mass storage via an active
			// object — tape drives serialize.
			e.Spawn(fmt.Sprintf("archive%04d", j.ID), func(p *des.Process) {
				t0.Tape.Write(p, cfg.LHC.ESDBytes)
			})
		})
	})
	production.MaxJobs = cfg.Runs
	production.Start(e)

	// Analysis activities at the T1 centres: pick a produced RAW (or
	// rather its replicated copy), query the local DB for metadata,
	// read the data, and burn CPU.
	t1s := grid.TierSites(1)
	analysis := &workload.Activity{
		Name:         "analysis",
		Interarrival: workload.Poisson(src, cfg.AnalysisRate),
		MaxJobs:      cfg.AnalysisJobs,
		Emit: func(i int) {
			t1 := t1s[src.Intn(len(t1s))]
			produced := production.Emitted()
			if produced == 0 {
				return
			}
			file := workload.LHCFile(workload.RAW, src.Intn(produced))
			start := e.Now()
			e.Spawn(fmt.Sprintf("ana%04d", i), func(p *des.Process) {
				t1.DB.Query(p, 1e6) // metadata lookup
				if err := sys.Access(p, t1, file); err != nil {
					// Data not yet replicated here: the access fell
					// back to the T0 master over the WAN, which is
					// the modeled behavior; a true miss is a bug.
					panic(err)
				}
				t1.CPU.Run(p, cfg.LHC.AnaOps())
				anaJobs++
				anaTime.Observe(p.Now() - start)
			})
		},
	}
	analysis.Start(e)

	if cfg.Horizon > 0 {
		e.RunUntil(cfg.Horizon)
	} else {
		e.Run()
	}

	var dbq uint64
	for _, s := range grid.Sites {
		if s.DB != nil {
			dbq += s.DB.Queries()
		}
	}
	return Result{
		RawProduced:   production.Emitted(),
		Shipped:       agent.Shipped,
		AgentBacklog:  agent.Backlog,
		AgentMaxDelay: agent.MaxDelay,
		RecoJobs:      recoJobs,
		AnalysisJobs:  anaJobs,
		MeanRecoTime:  recoTime.Mean(),
		MeanAnaTime:   anaTime.Mean(),
		T0Utilization: recoCluster.Utilization(),
		WANBytes:      sys.WANBytes,
		End:           e.Now(),
		DBQueries:     dbq,
	}
}

// build wires the tier grid, network, replication system and T0
// scheduler.
func build(cfg Config) (*des.Engine, *topology.Grid, *replication.System, *replication.Agent, *scheduler.Cluster) {
	if cfg.T1Count <= 0 {
		panic(fmt.Sprintf("monarc: bad config %+v", cfg))
	}
	e := des.NewEngine(des.WithSeed(cfg.Seed))
	var grid *topology.Grid
	if cfg.SharedUplink {
		// Study topology: T0 -(uplink under test)- WAN router, then a
		// fat circuit per T1, so every T0→T1 flow contends for the
		// single uplink exactly as at CERN.
		grid = topology.NewGrid(e)
		t0 := grid.AddSite("T0", cfg.T0Spec)
		t0.Tier = 0
		wan := grid.AddSite("WAN", topology.SiteSpec{})
		grid.Link(t0, wan, cfg.T0T1Bps, cfg.T0T1Lat)
		for i := 0; i < cfg.T1Count; i++ {
			t1 := grid.AddSite(fmt.Sprintf("T1.%d", i), cfg.T1Spec)
			t1.Tier = 1
			grid.Link(wan, t1, 100e9/8, 0.01) // 100 Gbps tail, never the bottleneck
		}
		grid.Topo.ComputeRoutes()
	} else {
		levels := []topology.TierSpec{
			{Count: 1, Spec: cfg.T0Spec},
			{Count: cfg.T1Count, Spec: cfg.T1Spec, UplinkBps: cfg.T0T1Bps, UplinkLat: cfg.T0T1Lat},
		}
		if cfg.T2PerT1 > 0 {
			levels = append(levels, topology.TierSpec{
				Count: cfg.T2PerT1, Spec: cfg.T2Spec, UplinkBps: cfg.T1T2Bps, UplinkLat: cfg.T1T2Lat,
			})
		}
		grid = topology.TierModel(e, levels)
	}
	net := netsim.NewNetwork(e, grid.Topo)
	sys := replication.NewSystem(e, net)
	for _, s := range grid.Sites {
		if s.Disk != nil {
			sys.AddStore(s, replication.EvictLRU, replication.ModePull)
		}
	}
	t0 := grid.Site("T0")
	agent := sys.NewAgent(t0, grid.TierSites(1))
	recoCluster := scheduler.NewCluster(e, "T0-farm", cfg.T0Spec.Cores, cfg.T0Spec.CoreSpeed, scheduler.FCFS)
	return e, grid, sys, agent, recoCluster
}

// TierStudyPoint is one row of the T0/T1 link-capacity sweep.
type TierStudyPoint struct {
	LinkGbps     float64
	Shipped      uint64
	Expected     uint64
	Backlog      int     // transfers still queued at the horizon
	MaxDelay     float64 // worst production→delivery delay (s)
	DeliveredPct float64
	Sufficient   bool // all deliveries done and worst delay < RunPeriod
}

// RunTierStudy reproduces the Legrand et al. (2005) T0/T1 data
// replication study: sweep the T0→T1 link capacity and observe whether
// the replication agent can sustain the production rate. The paper
// reports that "the existing capacity of 2.5 Gbps was not sufficient
// and, in fact, not far afterwards the link was upgraded to a current
// 30 Gbps".
func RunTierStudy(seed uint64, linkGbps []float64, runs int, horizon float64) []TierStudyPoint {
	out := make([]TierStudyPoint, 0, len(linkGbps))
	for _, gbps := range linkGbps {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.SharedUplink = true
		cfg.T0T1Bps = gbps * 1e9 / 8
		cfg.Runs = runs
		cfg.AnalysisJobs = 0 // isolate the replication traffic
		cfg.T2PerT1 = 0
		cfg.Horizon = horizon
		// Production-era data taking: a 2 GB RAW file every ~10 s is a
		// 200 MB/s stream; shipped to T1Count subscribers it needs
		// ~6.4 Gbps of uplink — between the study's 2.5 and the
		// upgraded 30.
		cfg.LHC.RunPeriod = 10
		res := Run(cfg)
		expected := uint64(res.RawProduced * cfg.T1Count)
		pct := 0.0
		if expected > 0 {
			pct = 100 * float64(res.Shipped) / float64(expected)
		}
		out = append(out, TierStudyPoint{
			LinkGbps:     gbps,
			Shipped:      res.Shipped,
			Expected:     expected,
			Backlog:      res.AgentBacklog,
			MaxDelay:     res.AgentMaxDelay,
			DeliveredPct: pct,
			Sufficient: res.AgentBacklog == 0 && res.Shipped == expected &&
				res.AgentMaxDelay < 6*cfg.LHC.RunPeriod,
		})
	}
	return out
}

// Profile places MONARC 2 in the taxonomy.
func Profile() *taxonomy.Profile {
	return &taxonomy.Profile{
		Name:       "MONARC 2",
		Motivation: "LHC computing: validate tier architectures and data replication policies",
		Scope:      []taxonomy.Scope{taxonomy.ScopeGeneric, taxonomy.ScopeReplication, taxonomy.ScopeScheduling},
		Components: []taxonomy.Component{
			taxonomy.CompHosts, taxonomy.CompNetwork, taxonomy.CompMiddleware, taxonomy.CompApps,
		},
		DynamicComponents: true,
		Behavior:          taxonomy.Probabilistic,
		Mechanics:         taxonomy.MechDES,
		DESKinds:          []taxonomy.DESKind{taxonomy.DESEventDriven, taxonomy.DESTraceDriven},
		Execution:         taxonomy.ExecCentralized,
		MultiThreaded:     true,
		Queue:             taxonomy.QueueOLogN,
		JobMapping:        "active objects; jobs multiplexed on thread pool",
		Spec:              []taxonomy.SpecStyle{taxonomy.SpecLibrary, taxonomy.SpecVisual},
		Inputs:            []taxonomy.InputKind{taxonomy.InputGenerator, taxonomy.InputMonitored},
		Outputs:           []taxonomy.OutputKind{taxonomy.OutTextual, taxonomy.OutGraphical},
		VisualDesign:      true,
		VisualExec:        true,
		Validation:        taxonomy.ValidationTestbed,
	}
}
