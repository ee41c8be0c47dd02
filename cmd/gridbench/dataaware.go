package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"crossbroker/internal/experiments"
)

// dataawareReport is the BENCH_dataaware.json document: data-aware vs
// data-blind placement per replica count × link fabric.
type dataawareReport struct {
	GeneratedBy string                       `json:"generated_by"`
	GoVersion   string                       `json:"go_version"`
	Seed        int64                        `json:"seed"`
	Quick       bool                         `json:"quick"`
	Points      []experiments.DataAwarePoint `json:"points"`
}

// dataaware runs the data-aware placement sweep and writes
// BENCH_dataaware.json. Each cell runs the identical workload twice —
// transfer-cost-ranked and data-blind — on identically seeded grids;
// the command re-asserts the placement contract (no lost jobs, aware
// turnaround strictly better on every cell), renders the table, and
// optionally gates against a committed baseline. Deterministic for a
// fixed seed: two runs produce byte-identical reports.
func dataaware(out, baseline string, quick bool, seed int64, tolerance float64) error {
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
			return fmt.Errorf("dataaware: %s lost jobs (aware %d, blind %d of %d)",
				key, p.AwareDone, p.BlindDone, p.Jobs)
		}
		if p.AwareMeanTurnSec >= p.BlindMeanTurnSec {
			return fmt.Errorf("dataaware: %s aware turnaround %.1fs not better than blind %.1fs",
				key, p.AwareMeanTurnSec, p.BlindMeanTurnSec)
		}
	}
	rep := dataawareReport{
		GeneratedBy: "gridbench -exp dataaware",
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
	if baseline != "" {
		return compareDataAware(pts, baseline, tolerance)
	}
	return nil
}

func dataawareKey(p experiments.DataAwarePoint) string {
	link := "campus"
	if p.AsymLinks {
		link = "asym"
	}
	return fmt.Sprintf("replicas=%d/%s", p.Replicas, link)
}

// compareDataAware loads a committed dataawareReport and flags
// regressions: any cell present in both runs whose aware-over-blind
// speedup shrank by more than tolerance (of the baseline speedup)
// fails. New or removed cells are reported but never fail.
func compareDataAware(results []experiments.DataAwarePoint, baseline string, tolerance float64) error {
	data, err := os.ReadFile(baseline)
	if err != nil {
		return err
	}
	var base dataawareReport
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("dataaware: parsing baseline %s: %w", baseline, err)
	}
	old := make(map[string]experiments.DataAwarePoint, len(base.Points))
	for _, p := range base.Points {
		old[dataawareKey(p)] = p
	}
	var regressed []string
	for _, p := range results {
		key := dataawareKey(p)
		b, ok := old[key]
		if !ok {
			fmt.Printf("  %-20s new cell, no baseline\n", key)
			continue
		}
		if b.SpeedupPct <= 0 {
			continue
		}
		delta := (b.SpeedupPct - p.SpeedupPct) / b.SpeedupPct
		verdict := "ok"
		if delta > tolerance {
			verdict = "REGRESSED"
			regressed = append(regressed, key)
		}
		fmt.Printf("  %-20s speedup %5.1f%% -> %5.1f%% (%+.1f%%) %s\n",
			key, b.SpeedupPct, p.SpeedupPct, -100*delta, verdict)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("dataaware: %d cell(s) regressed beyond %.0f%% vs %s: %v",
			len(regressed), 100*tolerance, baseline, regressed)
	}
	fmt.Printf("no regressions beyond %.0f%% vs %s\n", 100*tolerance, baseline)
	return nil
}
