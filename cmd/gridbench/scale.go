package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"

	"crossbroker/internal/experiments"
)

// parseIntList parses a comma-separated list of non-negative integers
// (the -churn flag).
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad value %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// scaleReport is the BENCH_infosys.json document. Every measurement in
// it is deterministic — virtual-time pass latencies, counters from the
// pass itself, minimum-across-passes allocation counts taken on a
// single scheduler thread with the collector off — so two runs of the
// same binary produce byte-identical files, which CI checks.
type scaleReport struct {
	GeneratedBy string                   `json:"generated_by"`
	GoVersion   string                   `json:"go_version"`
	Results     []experiments.ScalePoint `json:"results"`
}

// scaleExp runs the information-system scaling sweep (-exp scale) and
// writes BENCH_infosys.json. It fails outright if the paged pass is
// slower than the whole-snapshot pass at 1,000 sites or the delta pass
// slower than the snapshot pass at 50,000, and — when a committed
// baseline is supplied — if any shared point's pass latency grew
// beyond the gate's tolerance (the CI regression gate, the same 25%
// as the matchmaking benchmarks).
func scaleExp(out, baseline string, shards, pageSize int, quick bool, seed int64, churn []int, churnSites, deltaDepth int) error {
	cfg := experiments.ScaleConfig{
		Shards: shards, PageSize: pageSize, Seed: seed,
		ChurnPerPass: 64,
		ChurnRates:   churn, ChurnSites: churnSites, DeltaLogDepth: deltaDepth,
	}
	if quick {
		// The 50k point stays in the smoke run: the headline claim —
		// delta flat where snapshot grows linearly — is only visible
		// at the top of the size axis.
		cfg.Points = []int{100, 250, 1000, 50000}
		cfg.ChurnRates = []int{64}
	}
	pts, err := experiments.ScaleSweep(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Information-system scaling — snapshot vs paged top-K vs delta-subscription pass")
	fmt.Println(experiments.RenderScale(pts))

	byKey := make(map[string]experiments.ScalePoint, len(pts))
	for _, p := range pts {
		byKey[experiments.ScalePointKey(p)] = p
	}
	if paged, ok := byKey["paged/sites=1000"]; ok {
		if snap, ok := byKey["snapshot/sites=1000"]; ok && paged.PassMicros > snap.PassMicros {
			return fmt.Errorf("paged pass slower than snapshot pass at 1000 sites (%dµs > %dµs)",
				paged.PassMicros, snap.PassMicros)
		}
	}
	if delta, ok := byKey[fmt.Sprintf("delta/sites=50000/churn=%d", cfg.ChurnPerPass)]; ok {
		if snap, ok := byKey["snapshot/sites=50000"]; ok && delta.PassMicros >= snap.PassMicros {
			return fmt.Errorf("delta pass not faster than snapshot pass at 50000 sites (%dµs >= %dµs)",
				delta.PassMicros, snap.PassMicros)
		}
	}

	rep := scaleReport{
		GeneratedBy: "gridbench -exp scale",
		GoVersion:   runtime.Version(),
		Results:     pts,
	}
	if err := writeReport(out, rep); err != nil {
		return err
	}
	return gate(rep, baseline, scaleRows)
}

// scaleRows gates each point's virtual pass latency; lower is better.
func scaleRows(r scaleReport) []row {
	return rowsOf(r.Results, func(p experiments.ScalePoint) row {
		return row{experiments.ScalePointKey(p), float64(p.PassMicros), false}
	})
}
