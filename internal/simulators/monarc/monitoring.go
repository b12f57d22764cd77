package monarc

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/metrics"
	"repro/internal/monitoring"
	"repro/internal/replication"
	"repro/internal/topology"
	"repro/internal/workload"
)

// MONARC 2's taxonomy row claims both input kinds: synthetic
// generators and "data sets collected by monitoring (the monitoring
// data format is the one produced by MonALISA)". ReplayMonitoring
// exercises the second: a monitoring capture whose records carry
// per-site analysis-job submission rates drives the tier-model
// scenario instead of the built-in stochastic activity.
//
// Records with Param == "submit_jobs" inject Value analysis jobs at
// the named T1 site at their timestamps; other parameters are ignored
// (a real capture interleaves many).

// MonitoringResult summarizes a replayed run.
type MonitoringResult struct {
	RecordsApplied int
	AnalysisJobs   uint64
	MeanAnaTime    float64
	DBQueries      uint64
}

// ReplayMonitoring runs the tier model driven by a monitoring capture.
// Production runs first (runs × RunPeriod), then the capture's job
// submissions replay against the replicated data.
func ReplayMonitoring(cfg Config, records []monitoring.Record) (MonitoringResult, error) {
	cfg.AnalysisJobs = 0 // the capture replaces the stochastic activity
	e, grid, sys, agent, recoCluster := build(cfg)
	defer e.Close()
	_ = recoCluster

	// Produce the dataset quickly so replayed jobs find data.
	prodSrc := e.Stream("lhc-run")
	production := workload.LHCRun(cfg.LHC, prodSrc, func(i int, f *replication.File) {
		agent.Produce(f)
	})
	production.MaxJobs = cfg.Runs
	production.Start(e)

	t1ByName := map[string]*topology.Site{}
	for _, s := range grid.TierSites(1) {
		t1ByName[s.Name] = s
	}

	var anaTime metrics.Summary
	var anaJobs uint64
	applied := 0
	src := e.Stream("replay")
	err := monitoring.Replay(e, records, func(r monitoring.Record) {
		if r.Param != "submit_jobs" {
			return
		}
		t1 := t1ByName[r.Site]
		if t1 == nil {
			return
		}
		applied++
		n := int(r.Value)
		for j := 0; j < n; j++ {
			produced := production.Emitted()
			if produced == 0 {
				continue
			}
			file := workload.LHCFile(workload.RAW, src.Intn(produced))
			start := e.Now()
			e.Spawn(fmt.Sprintf("replay-ana-%d", anaJobs), func(p *des.Process) {
				t1.DB.Query(p, 1e6)
				if err := sys.Access(p, t1, file); err != nil {
					panic(err)
				}
				t1.CPU.Run(p, cfg.LHC.AnaOps())
				anaJobs++
				anaTime.Observe(p.Now() - start)
			})
		}
	})
	if err != nil {
		return MonitoringResult{}, err
	}
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
	return MonitoringResult{
		RecordsApplied: applied,
		AnalysisJobs:   anaJobs,
		MeanAnaTime:    anaTime.Mean(),
		DBQueries:      dbq,
	}, nil
}
