package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"crossbroker/internal/experiments"
	"crossbroker/internal/trace"
)

// chaosReport is the BENCH_chaos.json document: broker failure
// recovery under the deterministic fault layer, per injected failure
// rate.
type chaosReport struct {
	GeneratedBy string                   `json:"generated_by"`
	GoVersion   string                   `json:"go_version"`
	Seed        int64                    `json:"seed"`
	Quick       bool                     `json:"quick"`
	Points      []experiments.ChaosPoint `json:"points"`
}

// chaos runs the failure-rate sweep and writes BENCH_chaos.json.
// The sweep is fully deterministic for a fixed seed: two runs produce
// byte-identical point lists (and, with -traceout, byte-identical
// event logs). A non-empty traceout enables per-cell tracing, checks
// every cell's log against the trace invariants, and exports the logs
// as JSONL. With delta set, matchmaking runs through the
// delta-subscription path with explicit infosys partition windows, so
// the exported traces carry DeltaPublished/SubscriptionGap events and
// the checker's staleness invariant has something to bite on.
func chaos(out, traceout string, quick, delta bool, seed int64) error {
	pts, err := experiments.ChaosSweep(experiments.ChaosConfig{
		Seed: seed, Quick: quick, Traced: traceout != "", Delta: delta,
	})
	if err != nil {
		return err
	}
	fmt.Println("Chaos — broker recovery vs injected failure rate")
	fmt.Println(experiments.RenderChaos(pts))
	for _, p := range pts {
		if p.Done+p.Aborted != p.Submitted {
			return fmt.Errorf("chaos: rate %.2g left non-terminal jobs (%d done, %d aborted, %d submitted)",
				p.CrashRate, p.Done, p.Aborted, p.Submitted)
		}
		if p.LeakedLeases != 0 {
			return fmt.Errorf("chaos: rate %.2g leaked %d leases", p.CrashRate, p.LeakedLeases)
		}
	}
	rep := chaosReport{
		GeneratedBy: "gridbench -exp chaos",
		GoVersion:   runtime.Version(),
		Seed:        seed,
		Quick:       quick,
		Points:      pts,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	if traceout != "" {
		if err := exportChaosTraces(traceout, pts); err != nil {
			return err
		}
	}
	return nil
}

// exportChaosTraces runs the invariant checker over every cell's event
// log — the sweep drained, so the strict CheckComplete applies — and
// writes the logs as one JSONL stream.
func exportChaosTraces(path string, pts []experiments.ChaosPoint) error {
	traces := make([]trace.Trace, 0, len(pts))
	events := 0
	for _, p := range pts {
		if v := trace.CheckComplete(p.Trace.Events); len(v) != 0 {
			return fmt.Errorf("chaos: %s: %d trace invariant violations, first: %s",
				p.Trace.Label, len(v), v[0])
		}
		events += len(p.Trace.Events)
		traces = append(traces, p.Trace)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(f, traces); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d cells, %d events, invariants clean)\n", path, len(traces), events)
	return nil
}
