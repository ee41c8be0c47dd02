package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"crossbroker/internal/trace"
)

// reportFile maps each experiment that writes a JSON report to its
// committed file name, which is also the default for -out.
var reportFile = map[string]string{
	"bench":      "BENCH_matchmaking.json",
	"scale":      "BENCH_infosys.json",
	"chaos":      "BENCH_chaos.json",
	"federation": "BENCH_federation.json",
	"dataaware":  "BENCH_dataaware.json",
	"replay":     "BENCH_replay.json",
}

// checkFileFlags accepts -out, -baseline and -traceout only when -exp
// names one experiment that honours them, so a file flag is never
// silently ignored, and two experiments of -exp all never write the
// same path.
func checkFileFlags(exp, out, baseline, traceout string) error {
	_, reports := reportFile[exp]
	switch {
	case out != "" && !reports:
		return fmt.Errorf("-out applies only to -exp bench, scale, chaos, federation, dataaware or replay, not %q", exp)
	case baseline != "" && (!reports || exp == "chaos"):
		return fmt.Errorf("-baseline applies only to -exp bench, scale, federation, dataaware or replay, not %q", exp)
	case traceout != "" && exp != "chaos" && exp != "federation" && exp != "replay":
		return fmt.Errorf("-traceout applies only to -exp chaos, federation or replay, not %q", exp)
	}
	return nil
}

// report is the document chaos, federation and dataaware write: one
// sweep's points under a provenance header.
type report[P any] struct {
	GeneratedBy string `json:"generated_by"`
	GoVersion   string `json:"go_version"`
	Seed        int64  `json:"seed"`
	Quick       bool   `json:"quick"`
	Points      []P    `json:"points"`
}

func newReport[P any](exp string, seed int64, quick bool, pts []P) report[P] {
	return report[P]{
		GeneratedBy: "gridbench -exp " + exp,
		GoVersion:   runtime.Version(),
		Seed:        seed,
		Quick:       quick,
		Points:      pts,
	}
}

// writeReport writes v to path as indented JSON with a trailing
// newline.
func writeReport(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// exportTraces checks every cell's event log against the trace
// invariants and writes the logs to path as one JSONL stream. cell
// returns a point's log and whether its grid drained: a drained cell
// must pass the strict CheckComplete, one that left jobs pending only
// the structural Check.
func exportTraces[P any](path string, pts []P, cell func(P) (trace.Trace, bool)) error {
	traces := make([]trace.Trace, 0, len(pts))
	events := 0
	for _, p := range pts {
		tr, drained := cell(p)
		check := trace.Check
		if drained {
			check = trace.CheckComplete
		}
		if v := check(tr.Events); len(v) != 0 {
			return fmt.Errorf("%s: %d trace invariant violations, first: %s", tr.Label, len(v), v[0])
		}
		events += len(tr.Events)
		traces = append(traces, tr)
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

// tolerance is how far (as a fraction of its baseline value) a gated
// value may move in its bad direction before a baseline gate fails.
const tolerance = 0.25

// row is one gated value of a report. A fresh report and its baseline
// are read into rows by the same extractor and matched by key.
type row struct {
	key            string
	value          float64
	higherIsBetter bool
}

// rowsOf maps a report's points to rows.
func rowsOf[P any](pts []P, f func(P) row) []row {
	rows := make([]row, len(pts))
	for i, p := range pts {
		rows[i] = f(p)
	}
	return rows
}

// gate compares the fresh report against the one committed at
// baseline (nothing to do for an empty path), reading both through
// rows, and prints one verdict per row.
func gate[R any](fresh R, baseline string, rows func(R) []row) error {
	if baseline == "" {
		return nil
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		return err
	}
	var base R
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baseline, err)
	}
	return compareRows(os.Stdout, rows(fresh), rows(base), baseline)
}

// compareRows fails when a row present on both sides moved by more
// than tolerance of its baseline value in its bad direction. A
// baseline value ≤ 0 is not gated; a fresh row without a baseline is
// listed as new and a baseline row the fresh run did not measure as
// not measured. Neither fails, so the gate never blocks resizing a
// sweep, but a measured value of 0 is a real row and is gated.
func compareRows(w io.Writer, fresh, base []row, baseline string) error {
	old := make(map[string]row, len(base))
	for _, b := range base {
		old[b.key] = b
	}
	measured := make(map[string]bool, len(fresh))
	var regressed []string
	for _, r := range fresh {
		measured[r.key] = true
		b, ok := old[r.key]
		if !ok {
			fmt.Fprintf(w, "  %-34s new, no baseline\n", r.key)
			continue
		}
		if b.value <= 0 {
			continue
		}
		change := (r.value - b.value) / b.value
		worse := change
		if r.higherIsBetter {
			worse = -change
		}
		verdict := "ok"
		if worse > tolerance {
			verdict = "REGRESSED"
			regressed = append(regressed, r.key)
		}
		fmt.Fprintf(w, "  %-34s %12.6g -> %12.6g (%+.1f%%) %s\n", r.key, b.value, r.value, 100*change, verdict)
	}
	for _, b := range base {
		if !measured[b.key] {
			fmt.Fprintf(w, "  %-34s not measured\n", b.key)
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d value(s) regressed beyond %.0f%% vs %s: %v",
			len(regressed), 100*tolerance, baseline, regressed)
	}
	fmt.Fprintf(w, "no regressions beyond %.0f%% vs %s\n", 100*tolerance, baseline)
	return nil
}
