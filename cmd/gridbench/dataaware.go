package main

import (
	"fmt"

	"crossbroker/internal/experiments"
)

// dataaware runs the data-aware placement sweep and writes
// BENCH_dataaware.json: data-aware vs data-blind placement per replica
// count × link fabric. Each cell runs the identical workload twice —
// transfer-cost-ranked and data-blind — on identically seeded grids;
// the command re-asserts the placement contract (no lost jobs, aware
// turnaround strictly better on every cell), renders the table, and
// optionally gates against a committed baseline. Deterministic for a
// fixed seed: two runs produce byte-identical reports.
func dataaware(out, baseline string, quick bool, seed int64) error {
	pts, err := experiments.DataAwareSweep(experiments.DataAwareConfig{
		Seed: seed, Quick: quick,
	})
	if err != nil {
		return err
	}
	fmt.Println("Data-aware vs data-blind placement — replica count × link fabric")
	fmt.Println(experiments.RenderDataAware(pts))
	for _, p := range pts {
		key := dataawareKey(p)
		if p.AwareDone != p.Jobs || p.BlindDone != p.Jobs {
			return fmt.Errorf("%s lost jobs (aware %d, blind %d of %d)",
				key, p.AwareDone, p.BlindDone, p.Jobs)
		}
		if p.AwareMeanTurnSec >= p.BlindMeanTurnSec {
			return fmt.Errorf("%s aware turnaround %.1fs not better than blind %.1fs",
				key, p.AwareMeanTurnSec, p.BlindMeanTurnSec)
		}
	}
	rep := newReport("dataaware", seed, quick, pts)
	if err := writeReport(out, rep); err != nil {
		return err
	}
	return gate(rep, baseline, dataawareRows)
}

func dataawareKey(p experiments.DataAwarePoint) string {
	link := "campus"
	if p.AsymLinks {
		link = "asym"
	}
	return fmt.Sprintf("replicas=%d/%s", p.Replicas, link)
}

// dataawareRows gates each cell's aware-over-blind turnaround speedup;
// higher is better.
func dataawareRows(r report[experiments.DataAwarePoint]) []row {
	return rowsOf(r.Points, func(p experiments.DataAwarePoint) row {
		return row{dataawareKey(p), p.SpeedupPct, true}
	})
}
