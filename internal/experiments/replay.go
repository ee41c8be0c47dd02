package experiments

import (
	"fmt"
	"time"

	"crossbroker/internal/broker"
	"crossbroker/internal/infosys"
	"crossbroker/internal/jdl"
	"crossbroker/internal/metrics"
	"crossbroker/internal/netsim"
	"crossbroker/internal/simclock"
	"crossbroker/internal/site"
	"crossbroker/internal/trace"
	"crossbroker/internal/workload"
)

// ReplaySweep drives the full broker stack with a recorded workload
// (SWF/GWF via internal/workload's trace ingest) instead of the
// synthetic day mix: each sweep point replays the same trace window
// at a different arrival speedup, so one published log yields a
// load-response curve of the paper's Table I metrics — interactive
// startup latency, batch turnaround, goodput. Everything runs in
// virtual time and is deterministic for a fixed trace + seed; two
// runs produce byte-identical point lists.

// ReplayPoint is one (trace window, speedup) measurement.
type ReplayPoint struct {
	// Speedup is the arrival-compression factor for this point
	// (inter-arrival gaps divided by Speedup, runtimes untouched).
	Speedup float64 `json:"speedup"`
	// Submitted counts the replayed jobs, split by the classification
	// rule.
	Submitted   int `json:"submitted"`
	Interactive int `json:"interactive"`
	Batch       int `json:"batch"`
	// Done and Failed are the terminal outcomes; Pending counts jobs
	// the bounded drain window left unfinished (0 for traces that fit
	// the grid).
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	Pending int `json:"pending"`
	// GoodputPct is Done/Submitted.
	GoodputPct float64 `json:"goodput_pct"`
	// MeanStartupSec and P95StartupSec summarize submission-to-first-
	// output of successful interactive jobs, in seconds.
	MeanStartupSec float64 `json:"mean_startup_sec"`
	P95StartupSec  float64 `json:"p95_startup_sec"`
	// SharedPlacements counts interactive jobs hosted on interactive
	// VMs (the paper's multiprogramming mechanism).
	SharedPlacements int `json:"shared_placements"`
	// MeanTurnaroundH and P95TurnaroundH summarize batch turnaround in
	// hours.
	MeanTurnaroundH float64 `json:"mean_turnaround_hours"`
	P95TurnaroundH  float64 `json:"p95_turnaround_hours"`
	// Resubmissions is the total failure-driven resubmission count
	// across jobs that reached a terminal state.
	Resubmissions int `json:"resubmissions"`
	// CappedWidths counts jobs whose recorded width exceeded the
	// biggest site and was clamped to fit.
	CappedWidths int `json:"capped_widths"`
	// SimSeconds is the virtual time the point consumed (arrival
	// window plus drain) and SimJobsPerSec the replay throughput
	// against the simulated clock. Both are deterministic — wall-clock
	// throughput lives in the gridbench report, not here, so the point
	// list stays byte-identical run over run.
	SimSeconds    float64 `json:"sim_seconds"`
	SimJobsPerSec float64 `json:"sim_jobs_per_sec"`
	// Trace is the cell's event log when ReplayConfig.Traced is set
	// (excluded from the JSON summary; export with trace.WriteJSONL).
	Trace trace.Trace `json:"-"`
}

// ReplayConfig parametrizes the sweep.
type ReplayConfig struct {
	// Jobs is the normalized trace (workload.LoadTrace or
	// FromSWF/FromGWF output). Ignored when Source is set.
	Jobs []workload.TraceJob
	// Source, when set, supplies a fresh replay stream per sweep point
	// — streamed ingest at constant memory, no materialized job slice.
	// It receives the point's speedup and must return a stream
	// positioned at the first job; the sweep closes it.
	Source func(speedup float64) (workload.ReplayStream, error)
	// Sites and NodesPerSite shape the grid (default 4x8).
	Sites, NodesPerSite int
	// StartHour/EndHour slice the trace window (hours; EndHour <= 0
	// means to the end).
	StartHour, EndHour float64
	// Speedups are the arrival-compression factors to sweep (default
	// 1, 2, 4).
	Speedups []float64
	// Rule classifies trace jobs as interactive or batch (zero value:
	// runtime <= 10m and width <= 4).
	Rule workload.ClassifyRule
	// PerformanceLoss is assigned to interactive jobs (default 10).
	PerformanceLoss int
	// TopK bounds each matchmaking pass's candidate heap (and so the
	// direct site probes per submission, the dominant per-job cost on
	// large grids). 0 uses 16; negative disables pruning and probes
	// every matching site, the pre-sharding behavior.
	TopK int
	// Seed drives broker randomization.
	Seed int64
	// Workers bounds concurrent points; 0 uses one per CPU.
	Workers int
	// Traced records every cell's event log on its own virtual clock.
	Traced bool
}

func (c *ReplayConfig) setDefaults() {
	if c.Sites <= 0 {
		c.Sites = 4
	}
	if c.NodesPerSite <= 0 {
		c.NodesPerSite = 8
	}
	if len(c.Speedups) == 0 {
		c.Speedups = []float64{1, 2, 4}
	}
	if c.TopK == 0 {
		c.TopK = 16
	} else if c.TopK < 0 {
		c.TopK = 0
	}
}

// ReplaySweep runs one independent simulation per speedup.
func ReplaySweep(cfg ReplayConfig) ([]ReplayPoint, error) {
	cfg.setDefaults()
	if len(cfg.Jobs) == 0 && cfg.Source == nil {
		return nil, fmt.Errorf("experiments: replay: no trace jobs (load one with workload.LoadTrace)")
	}
	return runCells(len(cfg.Speedups), cfg.Workers, func(i int) (ReplayPoint, error) {
		p, err := replayPoint(cfg.Speedups[i], int64(i), cfg)
		if err != nil {
			return p, fmt.Errorf("experiments: replay speedup %g: %w", cfg.Speedups[i], err)
		}
		return p, nil
	})
}

func replayPoint(speedup float64, idx int64, cfg ReplayConfig) (ReplayPoint, error) {
	p := ReplayPoint{Speedup: speedup}
	rcfg := workload.ReplayConfig{
		StartHour: cfg.StartHour, EndHour: cfg.EndHour,
		Speedup: speedup, Rule: cfg.Rule, PerformanceLoss: cfg.PerformanceLoss,
	}
	var stream workload.ReplayStream
	if cfg.Source != nil {
		s, err := cfg.Source(speedup)
		if err != nil {
			return p, err
		}
		stream = s
	} else {
		s, err := workload.NewReplay(cfg.Jobs, rcfg)
		if err != nil {
			return p, err
		}
		stream = s
	}
	defer stream.Close()

	sim := simclock.NewSim(time.Time{})
	info := infosys.New(sim, 500*time.Millisecond)
	var tr *trace.Tracer
	if cfg.Traced {
		tr = trace.New(sim.Now)
	}
	b := broker.New(broker.Config{
		Sim:   sim,
		Info:  info,
		Trace: tr,
		Seed:  cfg.Seed + idx,
		// Bounded recovery so every replayed job reaches a terminal
		// state even if the trace overloads the grid.
		MaxResubmits:     10,
		RetryInterval:    15 * time.Second,
		RetryBackoff:     2,
		RetryMaxInterval: 4 * time.Minute,
		AgentHeartbeat:   10 * time.Second,
		TopK:             cfg.TopK,
	})
	for i := 0; i < cfg.Sites; i++ {
		b.RegisterSite(site.New(sim, site.Config{
			Name:     fmt.Sprintf("s%02d", i),
			Nodes:    cfg.NodesPerSite,
			Network:  netsim.CampusGrid(),
			Costs:    site.DefaultCosts(),
			LRMCycle: 5 * time.Second,
		}))
	}

	var (
		submitErr  error
		maxRuntime time.Duration
		terminal   int
		drained    bool
		startup    = metrics.NewSeries("startup")
		turnaround = metrics.NewSeries("turnaround")
	)

	// Job descriptions are pooled: a description is only referenced by
	// its handle, and the handle is dropped once its Done trigger has
	// fired (state is terminal before the fire), so recycling there is
	// safe and keeps the million-job hot loop from churning the heap.
	var jdFree []*jdl.Job
	newJD := func() *jdl.Job {
		if n := len(jdFree); n > 0 {
			jd := jdFree[n-1]
			jdFree = jdFree[:n-1]
			*jd = jdl.Job{}
			return jd
		}
		return new(jdl.Job)
	}

	// arrive submits one job and hooks its terminal accounting onto
	// the Done trigger — no retained handle slice, no end-of-run scan:
	// completion metrics stream out as the simulation runs, so memory
	// stays constant in trace length.
	arrive := func(j workload.Job) {
		nodes := j.Nodes
		if nodes < 1 {
			nodes = 1
		}
		if nodes > cfg.NodesPerSite {
			nodes = cfg.NodesPerSite
			p.CappedWidths++
		}
		jd := newJD()
		jd.NodeNumber = nodes
		if nodes > 1 {
			jd.Flavor = jdl.MPICHP4
		}
		interactive := j.Kind == workload.InteractiveJob
		if interactive {
			p.Interactive++
			jd.Executable = "iapp"
			jd.Interactive = true
			jd.Access = jdl.SharedAccess
			jd.PerformanceLoss = j.PerformanceLoss
		} else {
			p.Batch++
			jd.Executable = "bapp"
		}
		if j.CPU > maxRuntime {
			maxRuntime = j.CPU
		}
		h, err := b.Submit(broker.Request{Job: jd, User: j.User, CPU: j.CPU})
		if err != nil {
			submitErr = err
			return
		}
		p.Submitted++
		h.Done.OnFire(func() {
			terminal++
			p.Resubmissions += h.Resubmissions()
			switch h.State() {
			case broker.Done:
				p.Done++
				if interactive {
					startup.AddDuration(h.Phases.Submission)
					if h.Shared() {
						p.SharedPlacements++
					}
				} else {
					turnaround.AddDuration(h.Turnaround())
				}
			case broker.Failed:
				p.Failed++
			}
			jdFree = append(jdFree, jd)
		})
	}

	// Arrival process: walk the replay stream on the virtual clock.
	// Zero-gap arrivals (simultaneous submits, common at high
	// speedups) are pumped in one batch instead of one timer event
	// each.
	var pump func()
	pump = func() {
		for {
			j, delay, ok := stream.Next()
			if !ok {
				drained = true
				if err := stream.Err(); err != nil && submitErr == nil {
					submitErr = err
				}
				return
			}
			if delay == 0 {
				arrive(j)
				continue
			}
			sim.AfterFunc(delay, func() {
				arrive(j)
				pump()
			})
			return
		}
	}
	pump()

	// Run arrivals and completions in virtual-time chunks until every
	// submission is terminal (bounded: resubmission caps guarantee
	// progress, but a pathologically overloaded grid stops the clock
	// eventually).
	const chunk = 15 * time.Minute
	simStart := sim.Now()
	for waited := time.Duration(0); ; {
		if submitErr != nil {
			return p, submitErr
		}
		if drained {
			if terminal >= p.Submitted {
				break
			}
			if waited >= maxRuntime+48*time.Hour {
				break
			}
			waited += chunk
		}
		sim.RunFor(chunk)
	}
	p.Pending = p.Submitted - terminal
	p.SimSeconds = sim.Now().Sub(simStart).Seconds()
	if p.SimSeconds > 0 {
		p.SimJobsPerSec = float64(p.Submitted) / p.SimSeconds
	}
	if p.Submitted > 0 {
		p.GoodputPct = 100 * float64(p.Done) / float64(p.Submitted)
	}
	if startup.Len() > 0 {
		s := startup.Summarize()
		p.MeanStartupSec, p.P95StartupSec = s.Mean, s.P95
	}
	if turnaround.Len() > 0 {
		s := turnaround.Summarize()
		p.MeanTurnaroundH, p.P95TurnaroundH = s.Mean/3600, s.P95/3600
	}
	p.Trace = tr.Snapshot(fmt.Sprintf("speedup=%g", speedup))
	return p, nil
}

// RenderReplay formats the sweep as a results table.
func RenderReplay(points []ReplayPoint) string {
	t := metrics.NewTable("Speedup", "Jobs", "Inter", "Batch", "Done", "Failed",
		"Goodput", "Startup mean/p95 (s)", "Turnaround mean/p95 (h)", "Shared", "Capped")
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%g", p.Speedup),
			fmt.Sprintf("%d", p.Submitted),
			fmt.Sprintf("%d", p.Interactive),
			fmt.Sprintf("%d", p.Batch),
			fmt.Sprintf("%d", p.Done),
			fmt.Sprintf("%d", p.Failed),
			fmt.Sprintf("%.0f%%", p.GoodputPct),
			fmt.Sprintf("%.2f / %.2f", p.MeanStartupSec, p.P95StartupSec),
			fmt.Sprintf("%.2f / %.2f", p.MeanTurnaroundH, p.P95TurnaroundH),
			fmt.Sprintf("%d", p.SharedPlacements),
			fmt.Sprintf("%d", p.CappedWidths))
	}
	return t.String()
}
