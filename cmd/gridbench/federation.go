package main

import (
	"fmt"

	"crossbroker/internal/experiments"
	"crossbroker/internal/trace"
)

// federation runs the federation chaos sweep and writes
// BENCH_federation.json: federated brokers under chaos, per topology ×
// offload headroom × fault rate. Every cell has already asserted the
// safety contract (merged-trace invariants, zero leaked leases, zero
// open transfer leases); this command re-checks the grid-wide totals,
// renders the table, and optionally gates against a committed
// baseline. Fully deterministic for a fixed seed: two runs produce
// byte-identical reports (and, with -traceout, byte-identical merged
// event logs).
func federation(out, baseline, traceout string, quick bool, seed int64) error {
	pts, err := experiments.FederationSweep(experiments.FederationConfig{
		Seed: seed, Quick: quick, Traced: traceout != "",
	})
	if err != nil {
		return err
	}
	fmt.Println("Federation — offloading brokers vs injected failure rate")
	fmt.Println(experiments.RenderFederation(pts))
	for _, p := range pts {
		key := federationKey(p)
		if p.Done+p.Failed != p.Submitted {
			return fmt.Errorf("%s left non-terminal jobs (%d done, %d failed, %d submitted)",
				key, p.Done, p.Failed, p.Submitted)
		}
		if p.LeakedLeases != 0 {
			return fmt.Errorf("%s leaked %d leases grid-wide", key, p.LeakedLeases)
		}
		if p.OpenTransfers != 0 {
			return fmt.Errorf("%s left %d transfer leases open", key, p.OpenTransfers)
		}
	}
	rep := newReport("federation", seed, quick, pts)
	if err := writeReport(out, rep); err != nil {
		return err
	}
	if traceout != "" {
		err := exportTraces(traceout, pts, func(p experiments.FederationPoint) (trace.Trace, bool) {
			return p.Trace, true
		})
		if err != nil {
			return err
		}
	}
	return gate(rep, baseline, federationRows)
}

func federationKey(p experiments.FederationPoint) string {
	return fmt.Sprintf("%s/k=%d/rate=%.2g", p.Topology, p.K, p.FaultRate)
}

// federationRows gates each cell's goodput; higher is better.
func federationRows(r report[experiments.FederationPoint]) []row {
	return rowsOf(r.Points, func(p experiments.FederationPoint) row {
		return row{federationKey(p), p.GoodputPct, true}
	})
}
