// Command gridbench regenerates every table and figure of the paper's
// evaluation section:
//
//	gridbench -exp table1               # Table I, both scenarios
//	gridbench -exp fig6                 # campus-grid streaming overhead
//	gridbench -exp fig7                 # wide-area streaming overhead
//	gridbench -exp fig8                 # VM load overhead
//	gridbench -exp ablations            # design-choice studies
//	gridbench -exp bench                # matchmaking benchmarks -> JSON
//	gridbench -exp scale                # infosys scaling sweep -> JSON
//	gridbench -exp federation           # federated-broker chaos sweep -> JSON
//	gridbench -exp dataaware            # data-aware vs data-blind placement -> JSON
//	gridbench -exp replay -trace f.swf  # replay a recorded workload -> JSON
//	gridbench -exp all
//
// Figures 6 and 7 run in real time over shaped in-memory networks;
// -scale shrinks network delays (default 1.0 = paper-like latencies)
// and -rounds controls the sequence count (the paper used 1,000).
// Table I and Figure 8 run in virtual time and finish in seconds
// regardless of their configured size. -series additionally dumps the
// per-iteration series (the papers' plotted points) as CSV to stdout.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"crossbroker/internal/experiments"
	"crossbroker/internal/netsim"
	"crossbroker/internal/workload"
)

func main() {
	os.Exit(realMain())
}

// realMain carries the exit code back so deferred profile writers run
// before the process exits (os.Exit skips defers).
func realMain() int {
	exp := flag.String("exp", "all", "experiment: table1, fig6, fig7, fig8, load, day, ablations, bench, scale, chaos, federation, dataaware, replay, checktrace, all")
	rounds := flag.Int("rounds", 1000, "ping-pong sequences per cell (figs 6/7)")
	runs := flag.Int("runs", 100, "submissions per method (table 1)")
	iters := flag.Int("iters", 1000, "loop iterations (fig 8)")
	scale := flag.Float64("scale", 1.0, "network delay scale for real-time experiments")
	series := flag.Bool("series", false, "dump raw per-iteration series as CSV")
	seed := flag.Int64("seed", 2006, "randomization seed")
	quick := flag.Bool("quick", false, "shrink -exp chaos, federation, dataaware and scale for smoke runs")
	out := flag.String("out", "", "report path for -exp bench, scale, chaos, federation, dataaware or replay (default: the experiment's committed BENCH_*.json)")
	baseline := flag.String("baseline", "", "committed report to gate -exp bench, scale, federation, dataaware or replay against (fails on a 25% regression)")
	traceOut := flag.String("traceout", "", "enable event tracing in -exp chaos, federation or replay and write the logs as JSONL here")
	traceIn := flag.String("tracein", "", "JSONL event log to verify with -exp checktrace")
	chromeOut := flag.String("chromeout", "", "also convert -tracein to Chrome trace_event JSON at this path")
	shards := flag.Int("shards", 16, "information-service shard count for -exp scale")
	pageSize := flag.Int("pagesize", 0, "discovery page size for -exp scale (0 = infosys default)")
	churn := flag.String("churn", "0,64,256,1024", "comma-separated churn-axis publish rates for -exp scale")
	churnSites := flag.Int("churnsites", 50000, "grid size for the -exp scale churn axis")
	deltaDepth := flag.Int("deltadepth", 256, "per-shard delta log depth for -exp scale delta cells")
	deltaChaos := flag.Bool("delta", false, "route -exp chaos matchmaking through the delta-subscription path")
	tracePath := flag.String("trace", "", "SWF/GWF workload log to drive -exp replay")
	synth := flag.Int("synth", 0, "generate a deterministic synthetic archive with this many jobs for -exp replay (instead of -trace)")
	window := flag.String("window", "", "trace window for -exp replay as N:M hours (default whole trace)")
	speedups := flag.String("speedups", "", "comma-separated arrival speedups for -exp replay (default 1,2,4)")
	sites := flag.Int("sites", 0, "replay grid sites (0 = 4, or 8 with -synth)")
	nodes := flag.Int("nodes", 0, "replay nodes per site (0 = 8, or 16 with -synth)")
	nowall := flag.Bool("nowall", false, "zero the wall-clock throughput fields in -exp replay output (for determinism diffs)")
	fetch := flag.String("fetch", "", "download a workload archive URL into the local content-addressed cache and print its path (see EXPERIMENTS.md)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if err := checkFileFlags(*exp, *out, *baseline, *traceOut); err != nil {
		fmt.Fprintf(os.Stderr, "gridbench: %v\n", err)
		return 2
	}
	reportOut := func(name string) string {
		if *out != "" {
			return *out
		}
		return reportFile[name]
	}

	if *fetch != "" {
		path, err := workload.Fetch(*fetch, workload.FetchOptions{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: -fetch: %v\n", err)
			return 1
		}
		fmt.Println(path)
		return 0
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "gridbench: -memprofile: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "gridbench: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}

	exitCode := 0
	run := func(name string, fn func() error) {
		if exitCode != 0 || (*exp != "all" && *exp != name) {
			return
		}
		start := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "gridbench: %s: %v\n", name, err)
			exitCode = 1
			return
		}
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() error { return table1(*runs, *seed) })
	run("load", func() error { return loadSweep(*seed) })
	run("day", func() error { return day(*seed) })
	run("fig6", func() error { return pingpong("fig6", netsim.CampusGrid(), *rounds, *scale, *seed, *series) })
	run("fig7", func() error { return pingpong("fig7", netsim.WideArea(), *rounds, *scale, *seed, *series) })
	run("fig8", func() error { return fig8(*iters, *series) })
	run("ablations", func() error { return ablations(*scale, *seed) })
	run("bench", func() error { return bench(reportOut("bench"), *baseline) })
	run("scale", func() error {
		rates, err := parseIntList(*churn)
		if err != nil {
			return fmt.Errorf("-churn: %w", err)
		}
		return scaleExp(reportOut("scale"), *baseline, *shards, *pageSize, *quick, *seed,
			rates, *churnSites, *deltaDepth)
	})
	run("chaos", func() error { return chaos(reportOut("chaos"), *traceOut, *quick, *deltaChaos, *seed) })
	run("federation", func() error {
		return federation(reportOut("federation"), *baseline, *traceOut, *quick, *seed)
	})
	run("dataaware", func() error {
		return dataaware(reportOut("dataaware"), *baseline, *quick, *seed)
	})
	// replay needs a workload log and checktrace an existing event
	// log, so both run only when named explicitly (there is nothing to
	// feed them under -exp all).
	if *exp == "replay" {
		run("replay", func() error {
			return replay(replayOpts{
				trace: *tracePath, synth: *synth,
				out: reportOut("replay"), traceout: *traceOut,
				window: *window, speedups: *speedups,
				seed: *seed, sites: *sites, nodes: *nodes,
				nowall: *nowall, baseline: *baseline,
			})
		})
	}
	if *exp == "checktrace" {
		run("checktrace", func() error { return checktrace(*traceIn, *chromeOut) })
	}
	return exitCode
}

func table1(runs int, seed int64) error {
	for _, sc := range []experiments.Scenario{experiments.Campus, experiments.IFCA} {
		rows, err := experiments.TableI(experiments.TableIConfig{
			Sites: 20, Runs: runs, Scenario: sc, Seed: seed,
		})
		if err != nil {
			return err
		}
		fmt.Printf("Table I — response time for jobs (seconds), execution at %s\n", sc)
		fmt.Println(experiments.RenderTableI(sc, rows))
	}
	fmt.Println(`Paper reference (Table I): Glogin 16.43/20.12; Idle 0.5/3/17.2;
Virtual machine 6.79; Job+agent 29.3 (campus submission column).`)
	return nil
}

func loadSweep(seed int64) error {
	pts, err := experiments.LoadSweep([]float64{0, 0.25, 0.5, 0.75, 1.0},
		experiments.LoadSweepConfig{Seed: seed})
	if err != nil {
		return err
	}
	fmt.Println("Interactive availability vs grid occupancy (the paper's motivation)")
	fmt.Println(experiments.RenderLoadSweep(pts))
	fmt.Println(`At full batch occupancy a conventional (exclusive-only) broker locks
interactive work out; the multiprogramming mechanism keeps placing it
within seconds at a bounded cost to the batch jobs (Section 5.2).`)
	return nil
}

func day(seed int64) error {
	cfg := experiments.DayConfig{Seed: seed, FairShare: true}
	rep, err := experiments.Day(cfg)
	if err != nil {
		return err
	}
	cfg = experiments.DayConfig{Sites: 4, NodesPerSite: 4, Hours: 24, ArrivalsPerHour: 6, Seed: seed}
	fmt.Println(experiments.RenderDay(cfg, rep))
	return nil
}

func pingpong(name string, prof netsim.Profile, rounds int, scale float64, seed int64, series bool) error {
	dir, err := os.MkdirTemp("", "gridbench-spill")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sizes := []int{10, 100, 1000, 10000}
	res, err := experiments.PingPongSuite(experiments.PingPongConfig{
		Profile:  prof.Scale(scale),
		Sizes:    sizes,
		Rounds:   rounds,
		SpillDir: dir,
		Seed:     seed,
	})
	if err != nil {
		return err
	}
	title := fmt.Sprintf("Figure %s — sequential I/O streaming, %s profile (scale %.2f, %d rounds)",
		strings.TrimPrefix(name, "fig"), prof.Name, scale, rounds)
	fmt.Println(experiments.RenderPingPong(title, res, sizes))
	if series {
		fmt.Println("method,size,sequence,seconds")
		for _, m := range experiments.AllMethods() {
			for _, size := range sizes {
				s := res[m][size]
				for i := 0; i < s.Len(); i++ {
					fmt.Printf("%s,%d,%d,%.9f\n", m, size, i, s.At(i))
				}
			}
		}
	}
	return nil
}

func fig8(iters int, series bool) error {
	cases, err := experiments.Fig8(experiments.Fig8Config{Iterations: iters})
	if err != nil {
		return err
	}
	fmt.Printf("Figure 8 — VM load overhead (%d iterations)\n", iters)
	fmt.Println(experiments.RenderFig8(cases))
	fmt.Println(`Paper reference (Section 6.3): reference CPU 0.921 s (sd 0.001), I/O
6.06 ms (sd 6.9e-5); PL=10 -> CPU +8%, I/O +5%; PL=25 -> CPU +22%, I/O +10%.`)
	if series {
		fmt.Println("case,iteration,cpu_seconds,io_seconds")
		for _, c := range cases {
			for i := 0; i < c.CPU.Len(); i++ {
				fmt.Printf("%s,%d,%.9f,%.9f\n", c.Name, i, c.CPU.At(i), c.IO.At(i))
			}
		}
	}
	return nil
}

func ablations(scale float64, seed int64) error {
	fmt.Println("Ablation: ssh packetization block size, 10 KB round trip (campus)")
	blocks, err := experiments.BlockSizeSweep(netsim.CampusGrid().Scale(scale), nil, 100)
	if err != nil {
		return err
	}
	for _, bs := range []int{256, 512, 1024, 4096, 16384} {
		if s, ok := blocks[bs]; ok {
			fmt.Printf("  block %6d B: mean %.6f s\n", bs, s.Mean)
		}
	}

	fmt.Println("\nAblation: exclusive-temporal-access lease duration (6 jobs, 6 single-node sites)")
	leases, err := experiments.LeaseSweep(nil, 6, 6, seed)
	if err != nil {
		return err
	}
	for _, r := range leases {
		fmt.Printf("  lease %8v: %d ok, %d failed, %d resubmissions\n",
			r.Lease, r.Succeeded, r.Failed, r.Resubmissions)
	}

	fmt.Println("\nAblation: randomized vs deterministic selection (6 jobs, 6 sites)")
	pol, err := experiments.SelectionPolicy(6, 6)
	if err != nil {
		return err
	}
	for _, r := range pol {
		fmt.Printf("  %-13s: %d distinct sites used, %d resubmissions\n",
			r.Policy, r.DistinctSites, r.Resubmissions)
	}

	fmt.Println("\nAblation: stride quantum vs CPU-division accuracy (PL=25)")
	quanta, err := experiments.QuantumSweep(nil, 50)
	if err != nil {
		return err
	}
	for _, r := range quanta {
		fmt.Printf("  quantum %8v: measured loss %.1f%% (attribute: 25%%)\n",
			r.Quantum, r.MeasuredLoss*100)
	}

	fmt.Println("\nAblation: multiprogramming degree (Section 5.2 extension; 4 jobs, 1 node)")
	degrees, err := experiments.DegreeSweep([]int{1, 2, 4}, 4)
	if err != nil {
		return err
	}
	for _, r := range degrees {
		fmt.Printf("  degree %d: %d/4 jobs hosted, mean 10-min burst took %6.0fs\n",
			r.Degree, r.Placed, r.MeanBurst)
	}

	fmt.Println("\nFair-share scenario after 10 update intervals (higher = worse priority)")
	for _, u := range experiments.FairShareScenario(10) {
		fmt.Printf("  %-17s: %.4f\n", u.Name, u.Priority)
	}
	return nil
}
