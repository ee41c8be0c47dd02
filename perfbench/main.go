// Command perfbench is the CrossBroker simulator's benchmark. It
// generates one workload's inputs from a seed, drives the simulator
// in-process through its packages' public API on the callback engine,
// checks the outputs and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 it holds the end-to-end metrics, measured on untraced
// runs; with -trace 1 the per-layer metrics, from one traced run plus
// isolated harnesses. README.md defines every metric. Run it from the
// root of a checkout:
//
//	bash perfbench/run.sh --workload replay-day --seed 1 --seconds 35 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"

	"crossbroker/internal/experiments"
	"crossbroker/internal/trace"
	"crossbroker/internal/workload"
)

// An end-to-end run times at least setupSamples set-ups alone, in
// batches of setupBatch.
const setupSamples, setupBatch = 201, 20

// outDir holds the traced runs' span dumps, relative to the checkout
// root the benchmark runs from.
const outDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one invocation's state: the workload, its inputs, the
// checks made so far and the result being assembled.
type bench struct {
	sp     spec
	in     *inputs
	seed   int64
	budget time.Duration
	res    result
	checks []string // failed checks
}

func main() {
	name := flag.String("workload", "", "workload: replay-day, replay-wide or jdl-churn")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "how long to measure, in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics from untraced runs; 1: per-layer metrics from a traced run")
	flag.Parse()
	sp, ok := specByName(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	// The replay CLI's GC setting: an explicit GOGC still wins.
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		debug.SetGCPercent(400)
		gogc = "400"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", sp.name, *seed, *seconds, *traced)
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s GOGC=%s engine=callback\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gogc)
	fmt.Printf("shape: %d jobs over %v on %d sites x %d nodes", sp.jobs, sp.span, sp.sites, sp.nodes)
	if sp.shards > 0 {
		fmt.Printf(", %d shards, delta log %d, publish every %v, JDL jobs, incremental match", sp.shards, sp.deltaLog, sp.publish)
	}
	fmt.Println()

	in, err := makeInputs(sp, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: inputs: %v\n", err)
		os.Exit(1)
	}
	b := &bench{sp: sp, in: in, seed: *seed, budget: time.Duration(*seconds) * time.Second,
		res: result{Metrics: map[string]metric{}}}
	if *traced == 1 {
		err = b.perLayer()
	} else {
		err = b.endToEnd()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	b.res.Correct = len(b.checks) == 0
	for _, c := range b.checks {
		fmt.Printf("CHECK FAILED: %s\n", c)
	}
	line, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.checks = append(b.checks, fmt.Sprintf(format, args...))
	}
}

// measure runs the workload once to warm up, then repeats it, at
// least min times, while another repeat of average length still fits
// the budget. Every run is checked; only the repeats after the warm-up
// are returned for timing, since the first run of a process also pays
// for faulting in its heap. between, when set, runs after every run
// and counts against the budget.
func (b *bench) measure(budget time.Duration, min int, between func() error) ([]*cellRun, error) {
	var runs []*cellRun
	start := time.Now()
	for {
		if n := len(runs) - 1; n >= min {
			spent := time.Since(start)
			if spent+spent/time.Duration(n+1) > budget {
				break
			}
		}
		r, err := runOnce(b.sp, b.in, b.seed, false)
		if err != nil {
			return nil, err
		}
		b.account(r)
		runs = append(runs, r)
		label := fmt.Sprintf("run %d", len(runs)-1)
		if len(runs) == 1 {
			label = "warm-up"
		}
		fmt.Printf("%s: set-up %.6f s, %d jobs in %.4f s (%.1f jobs/s), %d operation failures\n",
			label, r.setup.Seconds(), r.out.Point.Submitted, r.host.Seconds(),
			float64(r.out.Point.Submitted)/r.host.Seconds(), r.opFailed)
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
	}
	for i, r := range runs[1:] {
		b.check(r.out.key() == runs[0].out.key(), "determinism: run %d's simulated outputs differ from the warm-up's", i+1)
	}
	return runs[1:], nil
}

// account adds a run's operations to the result and checks its
// outputs.
func (b *bench) account(r *cellRun) {
	b.res.Attempted += r.submitted
	b.res.Failed += r.opFailed
	p := r.out.Point
	b.check(r.submitErr == nil, "submission error: %v", r.submitErr)
	b.check(p.Done+p.Failed+p.Pending == p.Submitted, "lost jobs: %d done + %d failed + %d pending != %d submitted",
		p.Done, p.Failed, p.Pending, p.Submitted)
	b.check(p.Pending == 0, "%d jobs still pending at the end", p.Pending)
	b.check(p.Submitted == r.submitted, "%d of %d archived jobs submitted", p.Submitted, r.submitted)
	b.check(r.callback && r.goroutinesMax <= r.goroutines0,
		"engine guard: callback=%v, goroutines grew from %d to %d across RunFor", r.callback, r.goroutines0, r.goroutinesMax)
}

// endToEnd measures the user-visible metrics on untraced runs.
func (b *bench) endToEnd() error {
	// Set-up is short next to a run, so it is timed on its own, many
	// times, and reported as the median. The samples are taken in
	// batches before and between the runs: a shared host's speed can
	// switch between states within a second, and samples spread over
	// the whole measurement see a steadier mix of them from one
	// invocation to the next than one burst does.
	var setups, rates, allocs []float64
	sampleSetups := func(n int) error {
		for k := 0; k < n; k++ {
			d, err := setupOnce(b.sp, b.in, b.seed)
			if err != nil {
				return err
			}
			setups = append(setups, d.Seconds())
		}
		return nil
	}
	if err := sampleSetups(setupBatch); err != nil {
		return err
	}
	runs, err := b.measure(b.budget, 3, func() error { return sampleSetups(setupBatch) })
	if err != nil {
		return err
	}
	if err := sampleSetups(setupSamples - len(setups)); err != nil {
		return err
	}
	for _, r := range runs {
		rates = append(rates, float64(r.out.Point.Submitted)/r.host.Seconds())
		allocs = append(allocs, float64(r.totalAlloc)/float64(r.out.Point.Submitted))
	}
	out := runs[0].out
	b.put("jobs_per_s", median(rates), "1/s")
	b.put("setup_s", median(setups), "s")
	b.put("peak_rss_mb", peakRSSMB(), "MB")
	b.put("alloc_bytes_per_job", median(allocs), "B")
	b.put("startup_mean_s", out.StartupMean, "s")
	b.put("turnaround_p50_h", out.TurnP50H, "h")
	b.put("turnaround_p99_h", out.TurnP99H, "h")
	b.put("goodput_pct", out.Point.GoodputPct, "%")

	p := out.Point
	fmt.Printf("simulated: %d submitted (%d interactive, %d batch), %d done, %d failed in the model, %d pending\n",
		p.Submitted, p.Interactive, p.Batch, p.Done, p.Failed, p.Pending)
	// The startup quantiles sit on the model's fixed shared-placement
	// cost for every seed of the replay workloads, so they are printed
	// here but not gated: a gated time must vary from run to run.
	fmt.Printf("startup_p50_s %s s, startup_p99_s %s s over %d samples; turnaround over %d samples\n",
		strconv.FormatFloat(out.StartupP50, 'g', -1, 64), strconv.FormatFloat(out.StartupP99, 'g', -1, 64), out.StartupN, out.TurnN)
	fmt.Printf("operations: %d attempted over %d runs and the warm-up, %d failed\n", b.res.Attempted, len(runs), b.res.Failed)
	b.print(endToEndMetrics)
	return nil
}

// perLayer measures the per-layer metrics: untraced runs for the
// baseline, one traced run with spans around every call into a layer
// and the program's tracer on, and the isolated harnesses.
func (b *bench) perLayer() error {
	base, err := b.measure(b.budget/2, 2, nil)
	if err != nil {
		return err
	}
	tr, err := runOnce(b.sp, b.in, b.seed, true)
	if err != nil {
		return err
	}
	b.account(tr)
	b.check(tr.out.key() == base[0].out.key(), "the traced run's simulated outputs differ from the untraced runs'")
	fmt.Printf("traced run: %d jobs in %.4f s, %d spans, %d trace events\n",
		tr.out.Point.Submitted, tr.host.Seconds(), len(tr.rec.spans), len(tr.events))

	if b.sp.shards == 0 {
		if err := b.sweepCheck(tr.out); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	spanFile := filepath.Join(outDir, "spans-"+b.sp.name+".csv")
	if err := tr.rec.write(spanFile); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", spanFile)

	jobs := float64(tr.out.Point.Submitted)
	perJob := func(n int) float64 { return float64(n) / jobs }
	t := tr.rec.totals()
	meanSelf := func(l layer) float64 {
		if t.calls[l] == 0 {
			return 0
		}
		return float64(t.self[l]) / float64(t.calls[l])
	}
	kinds := map[trace.Kind]int{}
	for _, e := range tr.events {
		kinds[e.Kind]++
	}

	recsPerSec, allocsPerRec, err := isoIngest(b.in.archive)
	if err != nil {
		return err
	}
	b.put("workload.next_ns_per_job", float64(t.self[lNext])/jobs, "ns")
	b.put("workload.records_per_s", recsPerSec, "1/s")
	b.put("workload.allocs_per_record", allocsPerRec, "count")

	nsPerEvent, allocsPerEvent := isoEngine(b.seed)
	b.put("simclock.ns_per_event", nsPerEvent, "ns")
	b.put("simclock.allocs_per_event", allocsPerEvent, "count")
	b.put("simclock.pending_peak", float64(tr.pendingPeak), "count")
	b.put("simclock.runfor_self_ns_per_job", float64(t.self[lRunFor])/jobs, "ns")

	b.put("infosys.publish_per_job", perJob(t.calls[lPublish]), "count")
	b.put("infosys.publish_ns", meanSelf(lPublish), "ns")
	b.put("infosys.discover_per_job", perJob(t.calls[lDiscover]), "count")
	b.put("infosys.discover_ns", meanSelf(lDiscover), "ns")
	b.put("infosys.subscribe_per_job", perJob(t.calls[lSubscribe]), "count")
	b.put("infosys.subscribe_ns", meanSelf(lSubscribe), "ns")
	b.put("infosys.gaps_per_job", perJob(kinds[trace.SubscriptionGap]), "count")

	m, err := isoMatch(b.sp, b.in, b.seed)
	if err != nil {
		return err
	}
	b.put("broker.submit_ns", meanSelf(lSubmit), "ns")
	b.put("broker.match_pass_ns", m.passNs, "ns")
	b.put("broker.match_scanned_per_pass", m.scanned, "count")
	b.put("broker.match_allocs_per_pass", m.allocs, "count")
	b.put("broker.match_deltas_per_pass", m.deltas, "count")
	b.put("broker.match_repins_per_pass", m.repins, "count")
	b.put("broker.leases_per_job", perJob(kinds[trace.LeaseAcquired]), "count")
	b.put("broker.resubmits_per_job", perJob(kinds[trace.Resubmitted]), "count")

	b.put("site.commits_per_job", perJob(kinds[trace.CommitSent]), "count")
	shared := 0.0
	if p := tr.out.Point; p.Interactive > 0 {
		shared = 100 * float64(p.SharedPlacements) / float64(p.Interactive)
	}
	b.put("glidein.shared_pct", shared, "%")
	b.put("glidein.free_agents_peak", float64(tr.freeAgentPeak), "count")

	b.put("jdl.parse_ns_per_job", float64(t.self[lParse])/jobs, "ns")
	b.put("jdl.eval_ns", m.evalNs, "ns")

	checkNs, exportNs, violations, err := isoTrace(tr.events)
	if err != nil {
		return err
	}
	if len(violations) > 0 {
		b.check(false, "trace.CheckComplete: %d violations, first: %v", len(violations), violations[0])
		b.res.Failed += tr.submitted - tr.opFailed // every operation of the traced run failed
	}
	var hosts, gcs, gcFrac, mallocs []float64
	for _, r := range base {
		hosts = append(hosts, r.host.Seconds())
		gcs = append(gcs, 1000*float64(r.numGC)/float64(r.out.Point.Submitted))
		gcFrac = append(gcFrac, r.gcCPU/r.allCPU)
		mallocs = append(mallocs, float64(r.mallocs)/float64(r.out.Point.Submitted))
	}
	b.put("trace.overhead_pct", 100*(tr.host.Seconds()/median(hosts)-1), "%")
	b.put("trace.events_per_job", perJob(len(tr.events)), "count")
	b.put("trace.check_ns_per_event", checkNs, "ns")
	b.put("trace.export_ns_per_event", exportNs, "ns")

	b.put("runtime.gc_per_kjob", median(gcs), "count")
	b.put("runtime.gc_cpu_fraction", median(gcFrac), "ratio")
	b.put("runtime.mallocs_per_job", median(mallocs), "count")

	fmt.Printf("layer spans (self time): ")
	for l := layer(0); l < nLayers; l++ {
		if t.calls[l] > 0 {
			fmt.Printf("%s %d calls %.3f s; ", layerNames[l], t.calls[l], float64(t.self[l])/1e9)
		}
	}
	fmt.Printf("covered %.3f of %.3f s\n", float64(t.topSum)/1e9, (tr.setup + tr.host).Seconds())
	fmt.Printf("iso match: %d passes on %d sites\n", m.passes, b.sp.sites)
	b.print(perLayerMetrics)
	return nil
}

// sweepCheck runs experiments.ReplaySweep on the same archive, seed
// and grid and requires its point to equal this benchmark's outputs.
func (b *bench) sweepCheck(got simOut) error {
	pts, err := experiments.ReplaySweep(experiments.ReplayConfig{
		Source: func(speedup float64) (workload.ReplayStream, error) {
			tr := workload.NewTraceReader(bytes.NewReader(b.in.archive), workload.FormatSWF, workload.TraceReaderOptions{})
			return workload.NewStreamReplay(tr, workload.ReplayConfig{Speedup: speedup})
		},
		Sites: b.sp.sites, NodesPerSite: b.sp.nodes,
		Speedups: []float64{1},
		Seed:     b.seed,
		Workers:  1,
	})
	if err != nil {
		return err
	}
	want, _ := json.Marshal(pts[0])
	have, _ := json.Marshal(got.Point)
	b.check(bytes.Equal(want, have), "outputs differ from experiments.ReplaySweep:\n  sweep %s\n  bench %s", want, have)
	fmt.Printf("experiments.ReplaySweep point matches: %v\n", bytes.Equal(want, have))
	return nil
}

func (b *bench) put(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// print lists the metrics in table order, each with the end-to-end
// metric and workload it should move.
func (b *bench) print(table []metricDef) {
	for _, d := range table {
		m, ok := b.res.Metrics[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-34s %16s %-6s", d.name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
		if d.moves != "" {
			line += "  -> " + d.moves
		}
		fmt.Println(line)
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
