package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// committedRows reads a committed report from the repository root and
// extracts its gated rows.
func committedRows[R any](file string, rows func(R) []row) func(*testing.T) []row {
	return func(t *testing.T) []row {
		t.Helper()
		data, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		var r R
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatal(err)
		}
		return rows(r)
	}
}

// withValue returns a copy of rows with key's value replaced.
func withValue(t *testing.T, rows []row, key string, v float64) []row {
	t.Helper()
	out := append([]row(nil), rows...)
	for i := range out {
		if out[i].key == key {
			out[i].value = v
			return out
		}
	}
	t.Fatalf("no row %q in %v", key, rows)
	return nil
}

// TestGateRows pins the one comparator against every gated report kind,
// read from its committed baseline: each kind's metric, key and
// direction, the 25% bound, the skipped baseline ≤ 0, and the rows
// present on one side only.
func TestGateRows(t *testing.T) {
	cases := []struct {
		kind           string
		rows           func(*testing.T) []row
		key            string
		higherIsBetter bool
	}{
		{"bench", committedRows("BENCH_matchmaking.json", benchRows), "Selection/sites=100/width=16", false},
		{"scale", committedRows("BENCH_infosys.json", scaleRows), "delta/sites=50000/churn=64", false},
		{"federation", committedRows("BENCH_federation.json", federationRows), "mesh/k=1/rate=0", true},
		{"dataaware", committedRows("BENCH_dataaware.json", dataawareRows), "replicas=1/asym", true},
		{"replay/sim", committedRows("BENCH_replay.json", replayRows), "sim-throughput/speedup=2", true},
		{"replay/wall", committedRows("BENCH_replay.json", replayRows), "wall-throughput/sweep", true},
	}
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			base := c.rows(t)
			var b row
			for _, r := range base {
				if r.key == c.key {
					b = r
				}
			}
			if b.key == "" || b.value <= 0 || b.higherIsBetter != c.higherIsBetter {
				t.Fatalf("row %q = %+v, want a positive value with higherIsBetter=%v", c.key, b, c.higherIsBetter)
			}
			compare := func(fresh, base []row) (string, error) {
				var w bytes.Buffer
				err := compareRows(&w, fresh, base, "baseline.json")
				return w.String(), err
			}
			if _, err := compare(base, base); err != nil {
				t.Fatalf("self-comparison: %v", err)
			}
			bad := func(frac float64) float64 {
				if c.higherIsBetter {
					return b.value * (1 - frac)
				}
				return b.value * (1 + frac)
			}
			_, err := compare(withValue(t, base, c.key, bad(0.30)), base)
			if err == nil || !strings.Contains(err.Error(), c.key) {
				t.Fatalf("a 30%% move of %s: err = %v, want a regression naming it", c.key, err)
			}
			if _, err := compare(withValue(t, base, c.key, bad(0.20)), base); err != nil {
				t.Fatalf("a 20%% move of %s: %v", c.key, err)
			}
			for _, v := range []float64{0, -1} {
				if _, err := compare(withValue(t, base, c.key, bad(0.30)), withValue(t, base, c.key, v)); err != nil {
					t.Fatalf("baseline value %v was gated: %v", v, err)
				}
			}
			fresh := append([]row{{key: "fresh-only", value: 0, higherIsBetter: c.higherIsBetter}}, base...)
			out, err := compare(fresh, base)
			if err != nil || !strings.Contains(out, "fresh-only") || !strings.Contains(out, "new, no baseline") {
				t.Fatalf("fresh-only row: err = %v, output:\n%s", err, out)
			}
			out, err = compare(base[1:], base)
			if err != nil || !strings.Contains(out, base[0].key+" ") || !strings.Contains(out, "not measured") {
				t.Fatalf("row %s missing from the fresh run: err = %v, output:\n%s", base[0].key, err, out)
			}
		})
	}
}

func TestCheckFileFlags(t *testing.T) {
	cases := []struct {
		exp, out, baseline, traceout string
		ok                           bool
	}{
		{exp: "all", ok: true},
		{exp: "table1", ok: true},
		{exp: "bench", out: "b.json", baseline: "BENCH_matchmaking.json", ok: true},
		{exp: "scale", out: "s.json", baseline: "BENCH_infosys.json", ok: true},
		{exp: "chaos", out: "c.json", traceout: "c.jsonl", ok: true},
		{exp: "federation", out: "f.json", baseline: "BENCH_federation.json", traceout: "f.jsonl", ok: true},
		{exp: "dataaware", out: "d.json", baseline: "BENCH_dataaware.json", ok: true},
		{exp: "replay", out: "r.json", baseline: "BENCH_replay.json", traceout: "r.jsonl", ok: true},
		{exp: "all", out: "x.json"},
		{exp: "all", baseline: "BENCH_matchmaking.json"},
		{exp: "all", traceout: "f.jsonl"},
		{exp: "table1", out: "x.json"},
		{exp: "checktrace", traceout: "t.jsonl"},
		{exp: "chaos", baseline: "BENCH_chaos.json"},
		{exp: "bench", traceout: "t.jsonl"},
		{exp: "scale", traceout: "t.jsonl"},
		{exp: "dataaware", traceout: "t.jsonl"},
	}
	for _, c := range cases {
		err := checkFileFlags(c.exp, c.out, c.baseline, c.traceout)
		if (err == nil) != c.ok {
			t.Errorf("checkFileFlags(%+v) = %v, want ok=%v", c, err, c.ok)
		}
	}
}
