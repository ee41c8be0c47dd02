#!/usr/bin/env bash
# Regenerates every deterministic experiment output pinned by
# golden.sha256 into one directory:
#
#	bash .github/workflows/golden.sh /path/to/gridbench OUTDIR
#	(cd OUTDIR && sha256sum -c "$REPO/.github/workflows/golden.sha256")
#
# Each report has its "go_version": line dropped, so a digest pins the
# simulator's behaviour rather than the Go release that wrote it. The
# scale report also drops its host allocation counts (gated separately
# against BENCH_infosys.json), and the ablations output drops the
# real-time block-size lines.
set -euo pipefail

gb="$(realpath "$1")"
out="$2"
repo="$(cd "$(dirname "$0")/../.." && pwd)"
mkdir -p "$out"
cd "$out"

strip() { sed '/"go_version":/d' "$1" > "$2" && rm "$1"; }

"$gb" -exp chaos -quick -out raw.json -traceout chaos_trace.jsonl 2>/dev/null
strip raw.json chaos.json
"$gb" -exp chaos -quick -delta -out raw.json -traceout chaos_delta_trace.jsonl 2>/dev/null
strip raw.json chaos_delta.json
"$gb" -exp federation -quick -out raw.json -traceout federation_trace.jsonl 2>/dev/null
strip raw.json federation.json
"$gb" -exp dataaware -quick -out raw.json 2>/dev/null
strip raw.json dataaware.json
"$gb" -exp scale -quick -out raw.json 2>/dev/null
sed -i -E '/"(allocs|bytes)_per_pass":/d' raw.json
strip raw.json scale.json
"$gb" -exp replay -nowall -trace "$repo/internal/workload/testdata/grid5000.gwf" \
	-out raw.json -traceout replay_gwf_trace.jsonl 2>/dev/null
strip raw.json replay_gwf.json
"$gb" -exp replay -nowall -synth 10000 -out raw.json 2>/dev/null
strip raw.json replay_synth.json

"$gb" -exp table1 -runs 20 2>/dev/null > table1.txt
"$gb" -exp load 2>/dev/null > load.txt
"$gb" -exp day 2>/dev/null > day.txt
"$gb" -exp fig8 -iters 200 2>/dev/null > fig8.txt
"$gb" -exp ablations 2>/dev/null | sed '/^  block .* B: mean /d' > ablations.txt
